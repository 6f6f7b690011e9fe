//! End-to-end integration tests spanning all crates: generator → trace
//! I/O → MFACT → simulators → study → enhanced model.

use masim_core::{run_one_observed, Dataset, Enhanced, Study, StudyConfig};
use masim_mfact::{
    probe_configs, replay, try_classify, try_replay, AppClass, Classification, ConfigResult,
    ModelConfig,
};
use masim_sim::{ModelKind, SimConfig, SimLimits};
use masim_topo::Machine;
use masim_trace::{io, Features, Time};
use masim_workloads::{build_corpus, generate, App, GenConfig, CORPUS_SIZE};

/// Trace round trip: generate → encode → decode → identical replay.
#[test]
fn serialization_preserves_predictions() {
    let machine = Machine::cielito();
    let cfg = GenConfig::test_default(App::Cg, 64);
    let trace = generate(&cfg);
    let bytes = io::encode(&trace);
    let back = io::decode(&bytes).expect("round trip");
    assert_eq!(trace, back);
    let a = replay(&trace, &[ModelConfig::base(machine.net)]);
    let b = replay(&back, &[ModelConfig::base(machine.net)]);
    assert_eq!(a[0].total, b[0].total);
    assert_eq!(a[0].counters, b[0].counters);
}

/// The streamed generator's file is the in-memory trace's encoding, byte
/// for byte: every app at four sizes, two seeds and three (imbalance,
/// comm fraction) corners, the middle one heavy skew under a tiny comm
/// fraction.
#[test]
fn generate_stream_writes_the_in_memory_encoding() {
    let dir = std::env::temp_dir().join(format!("masim-gen-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.mass");
    for app in App::ALL {
        for ranks in [8, 27, 64, 100] {
            for seed in [7, 11] {
                for (imbalance, comm_fraction) in [(0.1, 0.3), (1.0, 0.02), (0.0, 0.8)] {
                    let cfg = GenConfig {
                        seed,
                        imbalance,
                        comm_fraction,
                        ..GenConfig::test_default(app, ranks)
                    };
                    masim_workloads::generate_stream(&cfg, &path).expect("write stream");
                    let got = std::fs::read(&path).expect("read stream");
                    assert!(
                        got == io::encode(&generate(&cfg)),
                        "{app}({}) seed {seed}, imbalance {imbalance}, fraction {comm_fraction}",
                        cfg.ranks
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full pipeline on one trace: every tool produces a positive,
/// internally consistent prediction.
#[test]
fn one_trace_full_pipeline() {
    let entries = build_corpus(7);
    let t = run_one_observed(&entries[40], &StudyConfig::default()).study;
    assert!(t.mfact.completed());
    assert!(t.pflow.completed());
    let total = t.mfact.total.unwrap();
    assert!(total > Time::ZERO);
    // Communication prediction can exceed the wall total (it is summed
    // over ranks) but must be finite and positive.
    assert!(t.mfact.comm.unwrap() > Time::ZERO);
    // DIFF is defined and small-ish for a mid-corpus entry.
    let diff = t.diff_total_pflow().unwrap();
    assert!(diff < 1.0, "diff {diff}");
}

/// The classifier's replay and the study's replay are one replay: the
/// decision taken from a caller's own run of `probe_configs` equals
/// `try_classify`, and so does the class a study records — bit for bit.
#[test]
fn study_classifies_from_the_replay_it_ran() {
    fn assert_same(a: &Classification, b: &Classification, tag: &str) {
        let bits = |c: &Classification| {
            [c.bw_sensitivity.to_bits(), c.lat_sensitivity.to_bits(), c.base_total.to_bits()]
        };
        assert_eq!((a.class, a.baseline, bits(a)), (b.class, b.baseline, bits(b)), "{tag}");
    }
    let net = Machine::cielito().net;
    // The four apps `classify.rs` pins a class for, with that class: the
    // decision and its evidence must come from the caller's own results.
    for (app, ranks, comm_fraction, imbalance, class) in [
        (App::Ep, 16, 0.02, None, AppClass::ComputationBound),
        (App::Ft, 64, 0.6, None, AppClass::CommunicationBound),
        (App::Lu, 64, 0.5, None, AppClass::CommunicationBound),
        (App::Cmc, 16, 0.08, Some(0.9), AppClass::LoadImbalanceBound),
    ] {
        let mut gcfg = GenConfig::test_default(app, ranks);
        gcfg.comm_fraction = comm_fraction;
        gcfg.imbalance = imbalance.unwrap_or(gcfg.imbalance);
        let t = generate(&gcfg);
        let res = try_replay(&t, &probe_configs(net), None).expect("healthy trace");
        let mine = Classification::from_replay(&res);
        let secs = |i: usize| res[i].total.as_secs_f64();
        assert_eq!(mine.class, class, "{}: {mine:?}", app.name());
        assert_eq!((mine.base_total, mine.baseline), (secs(0), res[0].counters), "{}", app.name());
        assert_eq!(mine.bw_sensitivity, secs(1) / secs(0) - 1.0, "{}", app.name());
        assert_eq!(mine.lat_sensitivity, secs(2) / secs(0) - 1.0, "{}", app.name());
        assert_same(&mine, &try_classify(&t, net).expect("healthy trace"), app.name());
    }
    let entries = build_corpus(7);
    for entry in [&entries[30], &entries[40]] {
        let studied = run_one_observed(entry, &StudyConfig::default()).study.classification;
        let net = Machine::by_name(&entry.cfg.machine).expect("corpus machine").net;
        let whole = try_classify(&entry.generate(), net).expect("healthy trace");
        assert_same(&studied, &whole, entry.cfg.app.name());
    }
}

/// Corpus-wide structural invariant: every generated trace validates
/// and lands in its planned Table I buckets.
#[test]
fn corpus_traces_validate_and_hit_buckets() {
    let entries = build_corpus(7);
    assert_eq!(entries.len(), CORPUS_SIZE);
    // Spot-check a spread of entries (full validation happens per-crate).
    for e in entries.iter().step_by(17) {
        let t = e.generate();
        t.validate().unwrap_or_else(|err| panic!("{}: {err}", t.meta.label()));
        let f = t.comm_fraction();
        let (lo, hi, _) = masim_workloads::COMM_BUCKETS[e.comm_bucket];
        assert!(
            f >= lo - 1e-9 && f <= hi + 1e-9,
            "{}: comm fraction {f} outside bucket [{lo}, {hi}]",
            t.meta.label()
        );
    }
}

/// Classification ↔ simulation consistency: computation-bound traces
/// must have tiny DIFF; the apps the paper calls out (CR) must show
/// large DIFF at scale.
#[test]
fn classification_predicts_diff_extremes() {
    let machine = Machine::hopper();
    // EP: compute-bound.
    let mut ep_cfg = GenConfig::test_default(App::Ep, 64);
    ep_cfg.comm_fraction = 0.02;
    ep_cfg.machine = "hopper".into();
    ep_cfg.gbps = 35.0;
    ep_cfg.latency = Time::from_ns(2_575);
    ep_cfg.ranks_per_node = 24;
    let ep = generate(&ep_cfg);
    let c = try_classify(&ep, machine.net).expect("replay completes");
    assert_eq!(c.class, AppClass::ComputationBound);
    let m = replay(&ep, &[ModelConfig::base(machine.net)])[0].total;
    let s = masim_sim::run(
        &ep,
        &SimConfig::new(machine.clone(), ModelKind::PacketFlow { packet_bytes: 8192 }, &ep),
        SimLimits::unlimited(),
        None,
    )
    .expect("simulation completes")
    .total;
    let diff = (s.as_secs_f64() / m.as_secs_f64() - 1.0).abs();
    assert!(diff < 0.02, "EP diff {diff}");

    // CR at scale with a heavy communication share: simulation-worthy.
    let mut cr_cfg = GenConfig::test_default(App::Cr, 256);
    cr_cfg.comm_fraction = 0.7;
    cr_cfg.machine = "hopper".into();
    cr_cfg.gbps = 35.0;
    cr_cfg.latency = Time::from_ns(2_575);
    cr_cfg.ranks_per_node = 24;
    cr_cfg.size = 2;
    let cr = generate(&cr_cfg);
    let c = try_classify(&cr, machine.net).expect("replay completes");
    assert!(c.is_comm_sensitive(), "{c:?}");
    let m = replay(&cr, &[ModelConfig::base(machine.net)])[0].total;
    let s = masim_sim::run(
        &cr,
        &SimConfig::new(machine.clone(), ModelKind::PacketFlow { packet_bytes: 8192 }, &cr),
        SimLimits::unlimited(),
        None,
    )
    .expect("simulation completes")
    .total;
    let diff = (s.as_secs_f64() / m.as_secs_f64() - 1.0).abs();
    assert!(diff > 0.02, "CR diff {diff} unexpectedly small");
}

/// Study slice + enhanced model: the trained predictor beats guessing
/// and its feature space matches Table III.
#[test]
fn study_to_enhanced_model() {
    let study = Study::run_filtered(StudyConfig::default(), |i| i % 11 == 0);
    let data = Dataset::from_study(&study);
    assert!(data.len() >= 20);
    assert_eq!(data.x[0].len(), masim_core::enhanced::NUM_CANDIDATES);
    if data.y.iter().any(|&b| b) && data.y.iter().any(|&b| !b) {
        let e = Enhanced::train(&data, 5);
        assert!(e.success_rate() > 0.5);
        // Table IV surface is well-formed.
        let t4 = e.table_iv();
        assert_eq!(t4.len().min(10), t4.len());
        assert!(t4[0].1 > 0.0, "top variable never selected?");
    }
}

/// Feature extraction agrees with the trace's own aggregates.
#[test]
fn features_consistent_with_trace() {
    let cfg = GenConfig::test_default(App::MiniFe, 32);
    let t = generate(&cfg);
    let f = Features::extract(&t);
    assert_eq!(f.r as u32, t.num_ranks());
    assert!((f.t - t.measured_time().as_secs_f64()).abs() < 1e-12);
    let comm_frac = f.po_c / 100.0;
    assert!((comm_frac - t.comm_fraction()).abs() < 1e-9);
}

/// Determinism across the whole stack: same seed, same study numbers.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let study = Study::run_filtered(StudyConfig::default(), |i| i == 30 || i == 150);
        study
            .traces
            .iter()
            .map(|t| (t.mfact.total, t.pflow.total, t.measured_total))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// MPI matching through the public run path: the k-th receive posted on
/// a `(src, tag)` channel completes at the k-th arrival on it, whether
/// the receive or the message came first — pinned per model, equal from
/// memory and from the stream.
#[test]
fn matching_order_is_pinned_on_every_run_path() {
    use masim_sim::{run, SimLimits};
    use masim_trace::{Rank, RankBuilder, StreamedTrace, Trace, TraceMeta};
    let us = Time::from_us;
    let meta = TraceMeta {
        app: "match".into(),
        machine: "cielito".into(),
        ranks: 2,
        // One rank per node: every message crosses the network.
        ranks_per_node: 1,
        problem_size: 1,
        seed: 0,
    };
    let mut trace = Trace::empty(meta);
    let mut tx = RankBuilder::new(Rank(0));
    tx.compute(us(100));
    tx.isend(Rank(1), 4 << 10, 9, Time::ZERO);
    for bytes in [1 << 20, 8, 64 << 10] {
        tx.isend(Rank(1), bytes, 7, Time::ZERO);
    }
    tx.wait_all(Time::ZERO);
    trace.events[0] = tx.finish();
    // Two receives wait for their messages; the tag-9 message (every
    // model) waits for its receive. The first wait is on the *second*
    // receive posted and the long gap after it hides every later
    // completion, so the finish time is that receive's completion — the
    // second arrival on the channel — plus constants.
    let mut rx = RankBuilder::new(Rank(1));
    let r1 = rx.irecv(Rank(0), 1 << 20, 7, Time::ZERO);
    let r2 = rx.irecv(Rank(0), 8, 7, Time::ZERO);
    rx.compute(us(150));
    let r3 = rx.irecv(Rank(0), 64 << 10, 7, Time::ZERO);
    let r4 = rx.irecv(Rank(0), 4 << 10, 9, Time::ZERO);
    rx.wait(r2, Time::ZERO).compute(us(2_000));
    for req in [r1, r3, r4] {
        rx.wait(req, Time::ZERO).compute(us(10));
    }
    trace.events[1] = rx.finish();
    trace.validate().expect("hand-built trace is well formed");
    let stream = StreamedTrace::from_bytes(io::encode(&trace)).unwrap();

    // Picoseconds, [rank 0, rank 1], from the two-hash-map mailbox at 81ae6e2.
    let pinned: [[u64; 2]; 3] =
        [[994_572_800, 2_240_078_882], [998_000_000, 2_242_118_882], [994_572_800, 2_979_810_082]];
    for (model, want) in ModelKind::study_models().into_iter().zip(pinned) {
        let cfg = SimConfig::new(Machine::cielito(), model, &trace);
        let tag = model.name();
        let mem = run(&trace, &cfg, SimLimits::unlimited(), None).expect("in-memory run");
        let streamed = run(&stream, &cfg, SimLimits::unlimited(), None).expect("streamed run");
        assert_eq!(mem.per_rank.iter().map(|t| t.as_ps()).collect::<Vec<_>>(), want, "{tag}");
        assert_eq!(streamed.per_rank, mem.per_rank, "{tag} streamed");
    }
}

/// CG(64) spread two ranks per node over cielito: 32 nodes, so the packet
/// model carries real inter-node traffic (at the generator's default
/// density the trace fits on a few nodes and does little packet work).
fn cg64_two_per_node(seed: u64) -> masim_trace::Trace {
    let mut gcfg = GenConfig::test_default(App::Cg, 64);
    gcfg.machine = "cielito".into();
    gcfg.ranks_per_node = 2;
    gcfg.seed = seed;
    generate(&gcfg)
}

/// Every field of `got` equals `want`'s. Destructured, so a new result
/// field fails to compile here until it is compared too.
fn assert_same_sim(got: masim_sim::SimResult, want: &masim_sim::SimResult, tag: &str) {
    let masim_sim::SimResult {
        model,
        total,
        per_rank,
        comm_time,
        events,
        messages,
        work_units,
        max_link_bytes,
        link_bytes,
    } = got;
    assert_eq!(model, want.model, "{tag}");
    assert_eq!(total, want.total, "{tag}");
    assert_eq!(per_rank, want.per_rank, "{tag}");
    assert_eq!(comm_time, want.comm_time, "{tag}");
    assert_eq!(events, want.events, "{tag}");
    assert_eq!(messages, want.messages, "{tag}");
    assert_eq!(work_units, want.work_units, "{tag}");
    assert_eq!(max_link_bytes, want.max_link_bytes, "{tag}");
    assert_eq!(link_bytes, want.link_bytes, "{tag}");
}

/// Every result field of MFACT's replay `got` equals `want`'s, config by
/// config.
fn assert_same_mfact(got: Vec<ConfigResult>, want: &[ConfigResult], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}");
    for (i, (g, w)) in got.into_iter().zip(want).enumerate() {
        let ConfigResult { config: _, total, per_rank, comm_time, counters } = g;
        assert_eq!(total, w.total, "{tag} config {i}");
        assert_eq!(per_rank, w.per_rank, "{tag} config {i}");
        assert_eq!(comm_time, w.comm_time, "{tag} config {i}");
        assert_eq!(counters, w.counters, "{tag} config {i}");
    }
}

/// The packet model and MFACT replay a streamed trace exactly as they
/// replay the same trace from memory: every `SimResult` field, on a trace
/// with real packet traffic, and every field of MFACT's standard-sweep
/// results.
#[test]
fn cg64_streamed_replay_is_bit_identical_to_in_memory() {
    use masim_sim::{run, SimLimits};
    let trace = cg64_two_per_node(99);
    let stream = masim_trace::StreamedTrace::from_bytes(io::encode(&trace)).unwrap();
    let cfg = SimConfig::new(Machine::cielito(), ModelKind::Packet { packet_bytes: 1024 }, &trace);
    let mem =
        masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None).expect("simulation completes");
    assert!(mem.events > 0 && mem.work_units > 0, "no packet work");
    let streamed = run(&stream, &cfg, SimLimits::unlimited(), None).expect("streamed run");
    assert_same_sim(streamed, &mem, "packet");

    let sweep = ModelConfig::standard_sweep(Machine::cielito().net);
    let mem = try_replay(&trace, &sweep, None).expect("MFACT replays");
    let streamed = try_replay(&stream, &sweep, None).expect("MFACT replays streamed");
    assert_same_mfact(streamed, &mem, "mfact");
}

/// Ranks 0 and 1 trade 480 messages and close them with one `WaitAll`
/// each, whose ≈ 480 request bytes outgrow a decode window; rank 2 runs
/// one event and rank 3 two, segments shorter than one window.
fn window_edge_trace() -> masim_trace::Trace {
    use masim_trace::{Rank, RankBuilder, Trace, TraceMeta};
    let meta = TraceMeta {
        app: "edges".into(),
        machine: "cielito".into(),
        ranks: 4,
        ranks_per_node: 1,
        problem_size: 1,
        seed: 0,
    };
    let mut trace = Trace::empty(meta);
    let us = Time::from_us;
    let (mut tx, mut rx) = (RankBuilder::new(Rank(0)), RankBuilder::new(Rank(1)));
    tx.compute(us(3));
    for k in 0..480u32 {
        tx.isend(Rank(1), 1024 + u64::from(k), k % 7, Time::ZERO);
        rx.irecv(Rank(0), 1024 + u64::from(k), k % 7, Time::ZERO);
    }
    tx.wait_all(Time::ZERO).compute(us(5));
    rx.wait_all(Time::ZERO).compute(us(2));
    trace.events[0] = tx.finish();
    trace.events[1] = rx.finish();
    trace.events[2] = vec![masim_trace::Event::compute(us(40))];
    trace.events[3] = vec![masim_trace::Event::compute(us(1)), masim_trace::Event::compute(us(9))];
    trace.validate().expect("hand-built trace is well formed");
    trace
}

/// A trace streamed from its file replays exactly as from its encoded
/// bytes and from memory, in all three simulator models and MFACT's
/// standard sweep: a window-outgrowing `WaitAll`, one-event and
/// shorter-than-a-window ranks, and CG(64) with real packet traffic.
/// The file-backed stream holds its index and windows, nothing more.
#[test]
fn streamed_file_replays_bit_identically_to_bytes_and_memory() {
    use masim_sim::{run, SimLimits};
    use masim_trace::StreamedTrace;
    let dir = std::env::temp_dir().join(format!("masim-file-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let window = StreamedTrace::WINDOW as u64;
    for (name, trace) in [("edges", window_edge_trace()), ("cg64", cg64_two_per_node(99))] {
        let path = dir.join(format!("{name}.mass"));
        masim_trace::write_stream(&trace, &path).expect("write");
        let encoded = io::encode(&trace);
        let file = StreamedTrace::open(&path).expect("open");
        let bytes = StreamedTrace::from_bytes(encoded.clone()).expect("from_bytes");
        let ranks = u64::from(trace.num_ranks());
        assert_eq!(file.resident_bytes(), ranks * (24 + window), "{name}: index + windows");
        assert_eq!(bytes.resident_bytes(), file.resident_bytes() + encoded.len() as u64, "{name}");
        for model in ModelKind::study_models() {
            let cfg = SimConfig::new(Machine::cielito(), model, &trace);
            let mem = run(&trace, &cfg, SimLimits::unlimited(), None).expect("in-memory run");
            let tag = format!("{name} {}", model.name());
            let from_file = run(&file, &cfg, SimLimits::unlimited(), None).expect("file run");
            assert_same_sim(from_file, &mem, &format!("{tag} file"));
            let from_bytes = run(&bytes, &cfg, SimLimits::unlimited(), None).expect("bytes run");
            assert_same_sim(from_bytes, &mem, &format!("{tag} bytes"));
        }
        let sweep = ModelConfig::standard_sweep(Machine::cielito().net);
        let mem = try_replay(&trace, &sweep, None).expect("MFACT replays");
        let from_file = try_replay(&file, &sweep, None).expect("MFACT replays the file");
        assert_same_mfact(from_file, &mem, &format!("{name} mfact file"));
        let from_bytes = try_replay(&bytes, &sweep, None).expect("MFACT replays the bytes");
        assert_same_mfact(from_bytes, &mem, &format!("{name} mfact bytes"));
        // The replays read through the windows, by one rule for both sources.
        assert!(file.refills() > 0, "{name}");
        assert_eq!(file.refills(), bytes.refills(), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A work budget too small for the trace trips as a typed
/// `BudgetExhausted`, at the same point from memory and from the stream.
#[test]
fn budget_trips_identically_from_memory_and_stream() {
    use masim_sim::{run, SimError, SimLimits};
    let trace = cg64_two_per_node(7);
    let stream = masim_trace::StreamedTrace::from_bytes(io::encode(&trace)).unwrap();
    let cfg = SimConfig::new(Machine::cielito(), ModelKind::Packet { packet_bytes: 1024 }, &trace);
    let err =
        run(&trace, &cfg, SimLimits::budget(10_000), None).expect_err("tiny budget must trip");
    assert!(
        matches!(err, SimError::BudgetExhausted { consumed, budget: 10_000 } if consumed > 10_000),
        "expected BudgetExhausted, got {err}"
    );
    assert_eq!(run(&stream, &cfg, SimLimits::budget(10_000), None).err(), Some(err));
}

/// One of the design-ablation workloads: `app` at 64 ranks (the nearest
/// legal count), 16 ranks per node on Cielito, seed 99.
fn ablation_trace(app: App, comm_fraction: f64) -> masim_trace::Trace {
    let cfg = GenConfig {
        app,
        ranks: app.legal_ranks(64),
        ranks_per_node: 16,
        machine: "cielito".into(),
        gbps: 10.0,
        latency: Time::from_ns(2_500),
        size: 1,
        iters: 3,
        comm_fraction,
        imbalance: 0.1,
        seed: 99,
    };
    cfg.check();
    generate(&cfg)
}

/// The design ablations, as exact counts rather than wall times, so they
/// hold on any host (Cielito, workloads from [`ablation_trace`]). The
/// pinned values move with any model change; the relations asserted
/// beside them are the design claims, and must survive a re-pin.
///
/// * **Packet size** (packet model, FT(64), 1–16 KiB): the same messages
///   cost strictly fewer packets as packets grow, and the prediction
///   rises strictly — by ≈ 13.5 % at 16 KiB over the 1 KiB default.
/// * **Flow ripple** (flow model): FT(64)'s all-to-all bursts need more
///   rate re-solves than LULESH(64)'s nearest-neighbour exchanges,
///   although FT sends fewer messages.
/// * **Mapping** (packet-flow, 8 KiB packets, CR(64)): random placement
///   sends the same messages through the same events as block
///   placement, but does more work, loads its busiest link more and
///   predicts a longer run.
#[test]
fn design_ablations_hold_as_exact_counts() {
    use masim_topo::Mapping;
    let machine = Machine::cielito();
    let ft = ablation_trace(App::Ft, 0.5);
    let sweep: Vec<_> = [1u64, 2, 4, 8, 16]
        .map(|kb| {
            let model = ModelKind::Packet { packet_bytes: kb * 1024 };
            let r = masim_sim::run(
                &ft,
                &SimConfig::new(machine.clone(), model, &ft),
                SimLimits::unlimited(),
                None,
            )
            .expect("simulation completes");
            (r.messages, r.work_units, r.total.as_ps())
        })
        .into();
    assert_eq!(
        sweep,
        [
            (2_367, 9_456, 903_645_921),
            (2_367, 4_944, 908_475_395),
            (2_367, 2_688, 921_363_972),
            (2_367, 1_560, 952_029_393),
            (2_367, 996, 1_025_486_647),
        ]
    );
    for w in sweep.windows(2) {
        assert_eq!(w[0].0, w[1].0, "packet size changes no message");
        assert!(w[0].1 > w[1].1, "larger packets, fewer work units: {w:?}");
        assert!(w[0].2 < w[1].2, "larger packets, longer prediction: {w:?}");
    }
    let (default, largest) = (sweep[0].2 as f64, sweep[4].2 as f64);
    assert!(largest / default > 1.13, "16 KiB moves the prediction by more than a few percent");

    let flow = |app, comm_fraction| {
        let t = ablation_trace(app, comm_fraction);
        let r = masim_sim::run(
            &t,
            &SimConfig::new(machine.clone(), ModelKind::Flow, &t),
            SimLimits::unlimited(),
            None,
        )
        .expect("simulation completes");
        (r.messages, r.work_units)
    };
    let (lulesh, ft_flow) = (flow(App::Lulesh, 0.1), flow(App::Ft, 0.5));
    assert_eq!((lulesh, ft_flow), ((2_880, 1_577), (2_367, 6_678)));
    assert!(ft_flow.0 < lulesh.0 && ft_flow.1 > lulesh.1, "bursts ripple, not volume");

    let cr = ablation_trace(App::Cr, 0.6);
    let placed = |mapping| {
        let model = ModelKind::PacketFlow { packet_bytes: 8192 };
        let r = masim_sim::run(
            &cr,
            &SimConfig { mapping, ..SimConfig::new(machine.clone(), model, &cr) },
            SimLimits::unlimited(),
            None,
        )
        .expect("simulation completes");
        (r.messages, r.events, r.work_units, r.max_link_bytes, r.total.as_ps())
    };
    let block = placed(Mapping::block(cr.num_ranks(), 16));
    let random = placed(Mapping::random(cr.num_ranks(), 16, 3));
    assert_eq!(block, (1_599, 3_454, 816, 815_685, 446_390_029));
    assert_eq!(random, (1_599, 3_454, 1_653, 2_448_823, 500_664_389));
    assert_eq!((block.0, block.1), (random.0, random.1), "placement moves no message or event");
    assert!(random.2 > block.2 && random.3 > block.3 && random.4 > block.4);
}
