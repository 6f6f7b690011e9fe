//! `TraceSynth`: the shared engine behind all application generators.
//!
//! A generator describes *what* the application communicates (patterns,
//! message sizes, collectives) and where its compute rounds sit; the
//! synthesizer handles everything else:
//!
//! * stamping measured durations via [`StampModel`];
//! * request-id bookkeeping for nonblocking operations;
//! * **calibration** — compute gaps are emitted as weighted placeholders
//!   and sized at [`TraceSynth::finish`] so the trace's overall
//!   communication fraction lands exactly on `cfg.comm_fraction` (this
//!   is how the corpus reproduces Table Ib);
//! * **skew waits** — per-round compute imbalance surfaces as recorded
//!   wait time on the first blocking call after each gap, exactly as a
//!   real DUMPI trace records it;
//! * **two passes** for a trace written straight to disk
//!   ([`crate::generate_stream`]) — calibration needs global totals, so
//!   the program runs once keeping only those, then again from the same
//!   seed, encoding each event with its final duration as it is emitted.
//!   No decoded event is held.

use crate::config::GenConfig;
use crate::cost::StampModel;
use masim_rng::Rng;
use masim_trace::{
    CollKind, Event, EventKind, Rank, ReqId, SegmentWriter, StreamError, Time, Trace, TraceMeta,
};
use std::path::Path;

/// One compute round: per-rank gap weights plus the events that absorb
/// the round's skew as recorded wait time.
#[derive(Default, Debug)]
struct Round {
    /// (rank, slot event index, weight).
    slots: Vec<(u32, usize, f64)>,
    /// (rank, absorber event index).
    absorbers: Vec<(u32, usize)>,
}

/// Where emitted events go. Every store sees the same events through
/// [`TraceSynth::emit`]; only what it keeps differs.
enum Store {
    /// The in-memory path: every event kept, compute slots and skew waits
    /// patched at [`TraceSynth::finish`].
    Memory(Vec<Vec<Event>>),
    /// Pass 1 of the streamed path: no event kept, only the per-rank
    /// counts, the running comm sum and the rounds calibration reads.
    Tally,
    /// Pass 2 of the streamed path: each event encoded with its final
    /// duration as it is emitted.
    Encode(Encode),
}

/// Pass 2's state: the solved calibration and the segments it fills.
struct Encode {
    out: SegmentWriter,
    cal: Calibration,
    /// `(rank, absorber event index, skew wait)`, grouped by rank and in
    /// event order within a rank; an absorber of several deficits has
    /// one entry for each.
    waits: Vec<(u32, usize, Time)>,
    /// Per rank, the position in `waits` of its next entry.
    next_wait: Vec<usize>,
}

impl Encode {
    /// Encode event `idx` of `rank`, adding the waits it absorbs. Kept
    /// out of line so that [`TraceSynth::emit`] inlines small.
    #[inline(never)]
    fn push(&mut self, rank: Rank, idx: usize, mut event: Event) {
        let next = &mut self.next_wait[rank.idx()];
        while let Some(&(_, _, wait)) =
            self.waits.get(*next).filter(|w| (w.0, w.1) == (rank.0, idx))
        {
            event.dur += wait;
            *next += 1;
        }
        self.out.push(rank, &event);
    }
}

/// What calibration decides: the duration of one unit of gap weight, and
/// the damping `κ` of skew waits.
struct Calibration {
    unit: f64,
    kappa: f64,
}

impl Calibration {
    /// The final duration of a compute slot of `weight`.
    fn slot(&self, weight: f64) -> Time {
        Time::from_ps((self.unit * weight).round() as u64)
    }

    /// The wait a skew `deficit` adds to its absorber's stamp.
    fn wait(&self, deficit: f64) -> Time {
        Time::from_ps((self.unit * self.kappa * deficit).round() as u64)
    }
}

/// The gap unit `u` and damping `κ` that solve [`TraceSynth::finish`]'s
/// calibration equation for comm fraction `f`.
fn solve(f: f64, c: f64, w: f64, d: f64) -> Calibration {
    let mut kappa = 1.0;
    let denom = |k: f64| f * w - (1.0 - f) * k * d;
    if w > 0.0 && denom(kappa) <= 0.0 {
        // Damp waits so at most half of the comm budget is skew wait.
        kappa = 0.5 * f * w / ((1.0 - f) * d);
    }
    let unit = if w > 0.0 && c > 0.0 { c * (1.0 - f) / denom(kappa) } else { 0.0 };
    assert!(unit >= 0.0 && unit.is_finite(), "calibration failed: unit={unit}");
    Calibration { unit, kappa }
}

/// The trace synthesizer. See module docs.
pub struct TraceSynth {
    cfg: GenConfig,
    stamp: StampModel,
    store: Store,
    /// Events emitted per rank: the index the next one gets.
    lens: Vec<usize>,
    /// Stamped communication time emitted so far (`C` of [`solve`]).
    comm_ps: u128,
    next_req: Vec<u32>,
    open_reqs: Vec<Vec<(u32, u64)>>, // (req id, bytes) still outstanding
    rng: Rng,
    rounds: Vec<Round>,
    awaiting_absorber: Vec<bool>,
}

impl TraceSynth {
    /// Start synthesizing a trace for `cfg`, stamping measured times with
    /// the given original-run `contention` factor (≥ 1).
    pub fn new(cfg: GenConfig, contention: f64) -> TraceSynth {
        let n = cfg.ranks as usize;
        TraceSynth::with_store(cfg, contention, Store::Memory(vec![Vec::new(); n]))
    }

    fn with_store(cfg: GenConfig, contention: f64, store: Store) -> TraceSynth {
        cfg.check();
        let n = cfg.ranks as usize;
        let stamp = StampModel::new(cfg.gbps, cfg.latency, contention);
        let rng = Rng::seed_from_u64(cfg.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        TraceSynth {
            cfg,
            stamp,
            store,
            lens: vec![0; n],
            comm_ps: 0,
            next_req: vec![0; n],
            open_reqs: vec![Vec::new(); n],
            rng,
            rounds: Vec::new(),
            awaiting_absorber: vec![false; n],
        }
    }

    /// World size.
    pub fn ranks(&self) -> u32 {
        self.cfg.ranks
    }

    /// The generator's RNG (deterministic in `cfg.seed`).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The stamping model, for generators that need custom durations.
    pub fn stamp(&self) -> &StampModel {
        &self.stamp
    }

    /// Append `event` to `rank`'s stream and return its index there.
    /// Every event of every store passes here. Inlined into each emitter,
    /// so the in-memory path keeps its cost of one push per event.
    #[inline(always)]
    fn emit(&mut self, rank: Rank, event: Event) -> usize {
        let r = rank.idx();
        let idx = self.lens[r];
        self.lens[r] += 1;
        if !event.kind.is_compute() {
            self.comm_ps += u128::from(event.dur.as_ps());
        }
        match &mut self.store {
            Store::Memory(events) => events[r].push(event),
            Store::Tally => {}
            Store::Encode(enc) => enc.push(rank, idx, event),
        }
        idx
    }

    // ----- compute rounds -------------------------------------------------

    /// Open a new compute round. Subsequent [`TraceSynth::compute`] calls
    /// belong to it until the next `begin_round`.
    pub fn begin_round(&mut self) {
        self.rounds.push(Round::default());
    }

    /// Add a weighted compute gap for `rank` in the current round.
    /// The actual duration is assigned at `finish` (calibration).
    pub fn compute(&mut self, rank: Rank, weight: f64) {
        assert!(weight >= 0.0 && weight.is_finite());
        if let Store::Encode(enc) = &self.store {
            // Pass 2 knows the final duration and needs no round record.
            let dur = enc.cal.slot(weight);
            self.emit(rank, Event::compute(dur));
            return;
        }
        let idx = self.emit(rank, Event::compute(Time::ZERO));
        let round = self.rounds.last_mut().expect("compute() before begin_round()");
        round.slots.push((rank.0, idx, weight));
        self.awaiting_absorber[rank.idx()] = true;
    }

    /// Open a round and give every rank a gap of weight
    /// `1 + imbalance·U(0,1)` — the standard imbalanced-iteration shape.
    pub fn compute_round(&mut self) {
        self.begin_round();
        let imb = self.cfg.imbalance;
        for r in 0..self.cfg.ranks {
            let jitter: f64 = self.rng.next_f64();
            self.compute(Rank(r), 1.0 + imb * jitter);
        }
    }

    /// Like [`TraceSynth::compute_round`] but with explicit per-rank
    /// weights (for structurally imbalanced apps such as coarse
    /// multigrid levels).
    pub fn compute_round_weighted(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.cfg.ranks as usize);
        self.begin_round();
        for (r, &w) in weights.iter().enumerate() {
            self.compute(Rank(r as u32), w);
        }
    }

    /// Emit a blocking event; it absorbs its rank's pending round skew.
    fn emit_absorber(&mut self, rank: Rank, kind: EventKind, dur: Time) {
        let idx = self.emit(rank, Event::new(kind, dur));
        if self.awaiting_absorber[rank.idx()] {
            self.awaiting_absorber[rank.idx()] = false;
            if let Some(round) = self.rounds.last_mut() {
                round.absorbers.push((rank.0, idx));
            }
        }
    }

    // ----- point-to-point -------------------------------------------------

    /// Blocking send.
    pub fn send(&mut self, rank: Rank, peer: Rank, bytes: u64, tag: u32) {
        let dur = self.stamp.p2p(bytes);
        self.emit_absorber(rank, EventKind::Send { peer, bytes, tag }, dur);
    }

    /// Blocking receive (absorbs round skew as recorded wait).
    pub fn recv(&mut self, rank: Rank, peer: Rank, bytes: u64, tag: u32) {
        let dur = self.stamp.p2p(bytes);
        self.emit_absorber(rank, EventKind::Recv { peer, bytes, tag }, dur);
    }

    /// Nonblocking send.
    pub fn isend(&mut self, rank: Rank, peer: Rank, bytes: u64, tag: u32) -> ReqId {
        let req = self.open_req(rank, bytes);
        let dur = self.stamp.issue();
        self.emit(rank, Event::new(EventKind::Isend { peer, bytes, tag, req }, dur));
        req
    }

    /// Nonblocking receive.
    pub fn irecv(&mut self, rank: Rank, peer: Rank, bytes: u64, tag: u32) -> ReqId {
        let req = self.open_req(rank, bytes);
        let dur = self.stamp.issue();
        self.emit(rank, Event::new(EventKind::Irecv { peer, bytes, tag, req }, dur));
        req
    }

    fn open_req(&mut self, rank: Rank, bytes: u64) -> ReqId {
        let req = ReqId(self.next_req[rank.idx()]);
        self.next_req[rank.idx()] += 1;
        self.open_reqs[rank.idx()].push((req.0, bytes));
        req
    }

    /// Wait on one request.
    pub fn wait(&mut self, rank: Rank, req: ReqId) {
        let pos = self.open_reqs[rank.idx()]
            .iter()
            .position(|&(r, _)| r == req.0)
            .expect("wait on unknown request");
        let (_, bytes) = self.open_reqs[rank.idx()].remove(pos);
        let dur = self.stamp.wait(bytes);
        self.emit_absorber(rank, EventKind::Wait { req }, dur);
    }

    /// Wait on all outstanding requests of `rank`.
    pub fn wait_all(&mut self, rank: Rank) {
        if self.open_reqs[rank.idx()].is_empty() {
            return;
        }
        let reqs: Vec<ReqId> = self.open_reqs[rank.idx()].iter().map(|&(r, _)| ReqId(r)).collect();
        let max_bytes = self.open_reqs[rank.idx()].iter().map(|&(_, b)| b).max().unwrap_or(0);
        self.open_reqs[rank.idx()].clear();
        let dur = self.stamp.wait(max_bytes);
        self.emit_absorber(rank, EventKind::WaitAll { reqs }, dur);
    }

    /// Symmetric nonblocking exchange over undirected weighted `edges`:
    /// every endpoint posts its receives, then its sends, then waits on
    /// everything. Edges must be unique per unordered pair.
    pub fn symmetric_exchange(&mut self, edges: &[(u32, u32, u64)], tag: u32) {
        // Receives first on every rank (in edge order) …
        for &(a, b, bytes) in edges {
            debug_assert_ne!(a, b, "self-edge in exchange");
            self.irecv(Rank(a), Rank(b), bytes, tag);
            self.irecv(Rank(b), Rank(a), bytes, tag);
        }
        // … then the matching sends …
        for &(a, b, bytes) in edges {
            self.isend(Rank(a), Rank(b), bytes, tag);
            self.isend(Rank(b), Rank(a), bytes, tag);
        }
        // … then every participating rank waits.
        let mut participants: Vec<u32> = edges.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        participants.sort_unstable();
        participants.dedup();
        for r in participants {
            self.wait_all(Rank(r));
        }
    }

    // ----- collectives ----------------------------------------------------

    /// A collective on one rank (generators must emit a consistent
    /// sequence across ranks; prefer [`TraceSynth::coll_all`]).
    pub fn coll(&mut self, rank: Rank, kind: CollKind, bytes: u64, root: Rank) {
        let dur = self.stamp.collective(kind, bytes, self.cfg.ranks);
        self.emit_absorber(rank, EventKind::Coll { kind, bytes, root }, dur);
    }

    /// The same collective on every rank (uniform payload).
    pub fn coll_all(&mut self, kind: CollKind, bytes: u64, root: Rank) {
        for r in 0..self.cfg.ranks {
            self.coll(Rank(r), kind, bytes, root);
        }
    }

    /// An `Alltoallv` with per-rank total send volumes.
    pub fn alltoallv(&mut self, totals: &[u64]) {
        assert_eq!(totals.len(), self.cfg.ranks as usize);
        for (r, &t) in totals.iter().enumerate() {
            self.coll(Rank(r as u32), CollKind::Alltoallv, t, Rank(0));
        }
    }

    /// A barrier on every rank.
    pub fn barrier_all(&mut self) {
        self.coll_all(CollKind::Barrier, 0, Rank(0));
    }

    // ----- finish ---------------------------------------------------------

    /// Per-round skew deficits that actually reach an absorber, as
    /// `(rank, absorber event index, deficit weight)` in slot order.
    ///
    /// A slot's absorber is the first one its rank registered in the
    /// round. `absorber_of` indexes those by rank — filled from the
    /// round's absorbers, cleared through the same list — so the pass is
    /// linear in slots + absorbers at any rank count.
    fn skew_deficits(&self) -> Vec<(usize, usize, f64)> {
        const NONE: usize = usize::MAX;
        let mut absorber_of = vec![NONE; self.lens.len()];
        let mut deficits = Vec::new();
        for round in &self.rounds {
            if round.slots.is_empty() {
                continue;
            }
            for &(rank, abs_idx) in &round.absorbers {
                let first = &mut absorber_of[rank as usize];
                if *first == NONE {
                    *first = abs_idx;
                }
            }
            let maxw = round.slots.iter().map(|&(_, _, w)| w).fold(0.0, f64::max);
            for &(rank, _slot_idx, wgt) in &round.slots {
                let deficit = maxw - wgt;
                if deficit <= 0.0 {
                    continue;
                }
                let abs_idx = absorber_of[rank as usize];
                if abs_idx != NONE {
                    deficits.push((rank as usize, abs_idx, deficit));
                }
            }
            for &(rank, _) in &round.absorbers {
                absorber_of[rank as usize] = NONE;
            }
        }
        deficits
    }

    /// [`solve`] over this synthesizer's rounds and its skew `deficits`.
    fn calibration(&self, deficits: &[(usize, usize, f64)]) -> Calibration {
        for (r, open) in self.open_reqs.iter().enumerate() {
            assert!(open.is_empty(), "rank {r} finished with {} open requests", open.len());
        }
        let w: f64 = self.rounds.iter().flat_map(|r| r.slots.iter()).map(|&(_, _, w)| w).sum();
        let d: f64 = deficits.iter().map(|&(_, _, x)| x).sum();
        solve(self.cfg.comm_fraction, self.comm_ps as f64, w, d)
    }

    fn meta(&self) -> TraceMeta {
        TraceMeta {
            app: self.cfg.app.name().to_string(),
            machine: self.cfg.machine.clone(),
            ranks: self.cfg.ranks,
            ranks_per_node: self.cfg.ranks_per_node,
            problem_size: self.cfg.size,
            seed: self.cfg.seed,
        }
    }

    /// Calibrate compute gaps and skew waits, then build the trace.
    ///
    /// Solves for the per-weight-unit gap duration `u` such that the
    /// final communication fraction equals `cfg.comm_fraction` exactly,
    /// accounting for the wait time the calibrated skew will add:
    ///
    /// ```text
    /// (C + u·κ·D) / (C + u·κ·D + u·W) = f
    /// ```
    ///
    /// where `C` is stamped comm time, `W` total gap weight, `D` the
    /// total skew deficit reaching an absorber, and `κ ≤ 1` a damping
    /// factor chosen to keep the solution positive when `f` is very low
    /// but imbalance very high.
    pub fn finish(self) -> Trace {
        let deficits = self.skew_deficits();
        self.calibrate(deficits)
    }

    /// [`TraceSynth::finish`] over already-collected skew `deficits`.
    fn calibrate(self, deficits: Vec<(usize, usize, f64)>) -> Trace {
        let cal = self.calibration(&deficits);
        let meta = self.meta();
        let events = match self.store {
            Store::Memory(mut events) => {
                for round in &self.rounds {
                    for &(rank, idx, wgt) in &round.slots {
                        events[rank as usize][idx].dur = cal.slot(wgt);
                    }
                }
                for (rank, idx, deficit) in deficits {
                    events[rank][idx].dur += cal.wait(deficit);
                }
                events
            }
            // `new` is the only public constructor, and its store keeps
            // every event; the streamed passes keep none.
            Store::Tally | Store::Encode(_) => Vec::new(),
        };
        let trace = Trace { meta, events };
        debug_assert_eq!(trace.validate(), Ok(()), "generator produced an invalid trace");
        trace
    }
}

/// Run `program` twice from the same seed and write its trace to `path`
/// in MASS, byte for byte what `write_stream` makes of
/// [`TraceSynth::finish`]'s trace. Pass 1 keeps only what calibration
/// reads; pass 2 encodes each event with its final duration as it is
/// emitted, so no decoded event is held.
pub(crate) fn write_two_pass(
    cfg: &GenConfig,
    contention: f64,
    path: &Path,
    program: impl Fn(&mut TraceSynth),
) -> Result<(), StreamError> {
    let (cal, mut deficits) = {
        let mut tally = TraceSynth::with_store(cfg.clone(), contention, Store::Tally);
        program(&mut tally);
        let deficits = tally.skew_deficits();
        (tally.calibration(&deficits), deficits)
    };
    // Group by rank, keeping deficit order within a rank: a rank's
    // absorbers come in round order, so that is event order.
    deficits.sort_by_key(|&(rank, _, _)| rank);
    let waits: Vec<(u32, usize, Time)> = deficits
        .into_iter()
        .map(|(rank, idx, deficit)| (rank as u32, idx, cal.wait(deficit)))
        .collect();
    let mut next_wait = vec![waits.len(); cfg.ranks as usize];
    for (i, &(rank, _, _)) in waits.iter().enumerate().rev() {
        next_wait[rank as usize] = i;
    }
    let out = SegmentWriter::new(cfg.ranks);
    let store = Store::Encode(Encode { out, cal, waits, next_wait });
    let mut synth = TraceSynth::with_store(cfg.clone(), contention, store);
    program(&mut synth);
    let meta = synth.meta();
    match synth.store {
        Store::Encode(enc) => enc.out.write(&meta, path),
        // Built as `Encode` three lines up.
        Store::Memory(_) | Store::Tally => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;

    fn cfg(f: f64, imb: f64) -> GenConfig {
        GenConfig { comm_fraction: f, imbalance: imb, ..GenConfig::test_default(App::Ep, 8) }
    }

    #[test]
    fn calibration_hits_target_fraction_balanced() {
        for &f in &[0.05, 0.2, 0.5, 0.8] {
            let mut s = TraceSynth::new(cfg(f, 0.0), 1.0);
            for _ in 0..4 {
                s.compute_round();
                s.coll_all(CollKind::Allreduce, 4096, Rank(0));
            }
            let t = s.finish();
            assert_eq!(t.validate(), Ok(()));
            let got = t.comm_fraction();
            assert!((got - f).abs() < 1e-6, "target {f}, got {got}");
        }
    }

    #[test]
    fn calibration_hits_target_with_imbalance() {
        for &f in &[0.1, 0.4] {
            let mut s = TraceSynth::new(cfg(f, 0.5), 1.0);
            for _ in 0..5 {
                s.compute_round();
                s.coll_all(CollKind::Allreduce, 8192, Rank(0));
            }
            let t = s.finish();
            let got = t.comm_fraction();
            assert!((got - f).abs() < 1e-6, "target {f}, got {got}");
        }
    }

    #[test]
    fn skew_waits_land_on_absorbers() {
        let mut s = TraceSynth::new(cfg(0.3, 0.0), 1.0);
        s.begin_round();
        s.compute(Rank(0), 2.0); // slow rank
        for r in 1..8 {
            s.compute(Rank(r), 1.0);
        }
        s.coll_all(CollKind::Barrier, 0, Rank(0));
        let t = s.finish();
        // Every rank but 0 waited; their barrier durations exceed rank 0's.
        let barrier_dur = |r: usize| t.events[r].last().unwrap().dur;
        for r in 1..8 {
            assert!(barrier_dur(r) > barrier_dur(0), "rank {r} should have waited");
        }
    }

    #[test]
    fn symmetric_exchange_produces_valid_trace() {
        let mut s = TraceSynth::new(cfg(0.5, 0.1), 1.2);
        s.compute_round();
        s.symmetric_exchange(&[(0, 1, 1024), (2, 3, 2048), (4, 5, 512), (6, 7, 4096)], 9);
        let t = s.finish();
        assert_eq!(t.validate(), Ok(()));
        // 2 irecv + 2 isend per edge plus one waitall per participant.
        let n_events: usize = t.num_events();
        assert_eq!(n_events, 8 /*compute*/ + 4 * 4 + 8);
    }

    /// Rounds of heavy skew under a tiny comm fraction: the case where
    /// [`solve`] must damp κ below 1.
    fn damped_program(s: &mut TraceSynth) {
        for _ in 0..3 {
            s.compute_round();
            s.barrier_all();
        }
    }

    #[test]
    fn extreme_imbalance_low_fraction_still_calibrates() {
        let mut s = TraceSynth::new(cfg(0.02, 1.0), 1.0);
        damped_program(&mut s);
        let kappa = s.calibration(&s.skew_deficits()).kappa;
        assert!(kappa < 1.0, "the construction must damp: κ = {kappa}");
        let t = s.finish();
        let got = t.comm_fraction();
        assert!((got - 0.02).abs() < 1e-6, "got {got}");
        assert_two_pass_bytes_equal("damped", cfg(0.02, 1.0), damped_program);
    }

    /// The streamed path's file equals the in-memory path's encoding of
    /// the same `program`, byte for byte.
    fn assert_two_pass_bytes_equal(name: &str, cfg: GenConfig, program: fn(&mut TraceSynth)) {
        let mut s = TraceSynth::new(cfg.clone(), 1.0);
        program(&mut s);
        let want = masim_trace::io::encode(&s.finish());
        let dir = std::env::temp_dir().join(format!("masim-two-pass-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.mass"));
        write_two_pass(&cfg, 1.0, &path, program).unwrap();
        let got = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(got == want, "{name}: two-pass file differs from the in-memory encoding");
    }

    #[test]
    fn deterministic_in_seed() {
        let make = |seed| {
            let mut c = cfg(0.3, 0.4);
            c.seed = seed;
            let mut s = TraceSynth::new(c, 1.0);
            s.compute_round();
            s.coll_all(CollKind::Allreduce, 64, Rank(0));
            s.finish()
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    /// The absorber lookup as a linear `find` per slot — quadratic in
    /// ranks, kept only as the reference [`TraceSynth::skew_deficits`]
    /// must match element for element.
    fn naive_deficits(s: &TraceSynth) -> Vec<(usize, usize, f64)> {
        let mut deficits = Vec::new();
        for round in s.rounds.iter().filter(|r| !r.slots.is_empty()) {
            let maxw = round.slots.iter().map(|&(_, _, w)| w).fold(0.0, f64::max);
            for &(rank, _, wgt) in &round.slots {
                let deficit = maxw - wgt;
                if deficit <= 0.0 {
                    continue;
                }
                if let Some(&(_, abs_idx)) = round.absorbers.iter().find(|&&(ar, _)| ar == rank) {
                    deficits.push((rank as usize, abs_idx, deficit));
                }
            }
        }
        deficits
    }

    /// [`awkward_program`] in memory, not yet finished.
    fn awkward_rounds() -> TraceSynth {
        let mut s = TraceSynth::new(cfg(0.3, 0.0), 1.0);
        awkward_program(&mut s);
        s
    }

    /// Three rounds over 8 ranks hitting every lookup outcome: slots
    /// with no absorber (ranks 6, 7 in round 1), a zero-deficit maximum
    /// (rank 0), an absorber from a rank with no slot in its round
    /// (rank 7 in round 2, still armed from round 1), and a rank that
    /// registers twice in one round (rank 1 in round 3: first wins),
    /// the second time after a slot that follows its first absorber.
    fn awkward_program(s: &mut TraceSynth) {
        let pair = |s: &mut TraceSynth, a: u32, b: u32| {
            s.send(Rank(a), Rank(b), 512, 1);
            s.recv(Rank(b), Rank(a), 512, 1);
        };
        s.begin_round();
        s.compute(Rank(0), 3.0);
        for r in 1..8 {
            s.compute(Rank(r), 1.0 + 0.125 * r as f64);
        }
        for a in [0, 2, 4] {
            pair(s, a, a + 1);
        }
        s.begin_round();
        for r in 0..6 {
            s.compute(Rank(r), 2.0 - 0.25 * r as f64);
        }
        pair(s, 6, 7);
        for a in [0, 2, 4] {
            pair(s, a + 1, a);
        }
        s.begin_round();
        s.compute(Rank(1), 1.0);
        s.compute(Rank(2), 4.0);
        pair(s, 2, 1);
        s.compute(Rank(1), 0.5);
        pair(s, 1, 2);
        s.barrier_all();
    }

    #[test]
    fn indexed_absorber_lookup_matches_naive_find() {
        let s = awkward_rounds();
        // The construction really contains the cases it claims.
        let has_absorber = |round: &Round, rank: u32| round.absorbers.iter().any(|a| a.0 == rank);
        let has_slot = |round: &Round, rank: u32| round.slots.iter().any(|sl| sl.0 == rank);
        assert!(has_slot(&s.rounds[0], 6) && !has_absorber(&s.rounds[0], 6));
        assert!(has_absorber(&s.rounds[0], 0), "max-weight rank has an absorber but no deficit");
        assert!(has_absorber(&s.rounds[1], 7) && !has_slot(&s.rounds[1], 7));
        assert_eq!(s.rounds[2].absorbers.iter().filter(|a| a.0 == 1).count(), 2);

        let naive = naive_deficits(&s);
        let bits = |d: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
            d.iter().map(|&(r, i, x)| (r, i, x.to_bits())).collect()
        };
        assert_eq!(bits(&s.skew_deficits()), bits(&naive));
        assert!(naive.iter().all(|&(r, _, _)| r != 0), "zero deficit never reaches an absorber");

        // Every event duration, not only the deficit list.
        let want = awkward_rounds().calibrate(naive);
        assert_eq!(s.finish(), want);
    }

    /// Every awkward lookup case above, through the two-pass path: a
    /// slot after its rank's absorber, an absorber with no slot, a zero
    /// deficit and a double registration.
    #[test]
    fn awkward_rounds_stream_the_in_memory_bytes() {
        assert_two_pass_bytes_equal("awkward", cfg(0.3, 0.0), awkward_program);
    }

    /// FNV-1a 64 of each generator's canonical encoding. The binary format
    /// round-trips losslessly, so these move only if generator output does.
    #[test]
    fn generator_bytes_are_pinned() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for (app, want) in [
            (App::Cns, 0xd311_0384_bb2a_e21fu64),
            (App::Lulesh, 0x0a84_a447_66e0_17cd),
            (App::Mg, 0x5f0f_a20d_bce0_97e3),
            (App::Cr, 0x71ca_4b06_c56b_7dfe),
        ] {
            let cfg = GenConfig { seed: 7, ..GenConfig::test_default(app, 64) };
            let got = fnv1a(&masim_trace::io::encode(&crate::apps::generate(&cfg)));
            assert_eq!(got, want, "{app}(64) seed 7: {got:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "open requests")]
    fn finish_rejects_open_requests() {
        let mut s = TraceSynth::new(cfg(0.3, 0.0), 1.0);
        s.begin_round();
        s.compute(Rank(0), 1.0);
        let _ = s.isend(Rank(0), Rank(1), 8, 0);
        let _ = s.finish();
    }
}
