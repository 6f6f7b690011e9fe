//! Intra-trace parallel simulation: the packet model partitioned onto
//! the conservative windowed executor ([`WindowedPdes`]).
//!
//! The machine's switches are split into contiguous blocks by the
//! deterministic splitter ([`Partition`]); each block becomes one
//! logical process owning its switches' fabric links, its nodes' ranks,
//! and those ranks' NIC links, mailboxes, and replay state. With that
//! ownership closure every plain replay event is LP-local — mailbox
//! delivery, request completion, collective rounds, and a packet's
//! injection-hop bookkeeping all happen where the rank lives — and the
//! *only* cross-partition transition is a packet hopping onto a link
//! another LP owns. Each such hop pays at least one full link latency,
//! so the machine's hop latency is the conservative lookahead
//! (Cielito's 2500 ns buys generously wide windows).
//!
//! Each LP carries a private [`SimState`]: its own event arena slice of
//! link `free_at`/byte state, message slab, route arena, and collective
//! cache. Message ids and [`RouteRef`](crate::net::RouteRef)s are
//! LP-private, so a packet leaving home is demoted to a
//! [`ForeignPacket`] keyed by `(src, dst, tag)` — routing is
//! deterministic per rank pair, so the destination LP re-derives the
//! identical link sequence in its own arena.
//!
//! Determinism: the partition count is a pure function of the topology
//! (`min(switches, MAX_PARTS)`), never of the thread count, and the
//! executor's barrier exchange sorts cross messages by (arrival, source
//! LP) — so any `--sim-threads N > 1` produces one bit-identical
//! execution, pinned against the sequential engine by
//! `tests/pdes_equivalence.rs`.

use crate::error::SimError;
use crate::msg::Message;
use crate::net::{foreign_hop, ForeignPacket, ModelKind, Packet};
use crate::runner::{
    dispatch, finish, observe_fail, Leftover, SimConfig, SimCx, SimEvent, SimLimits, SimResult,
    SimState,
};
use masim_des::{LogicalProcess, Outbox, PdesError, PdesLimits, WindowedPdes};
use masim_obs::MetricSet;
use masim_topo::{LinkId, Machine, Mapping, Partition};
use masim_trace::{Rank, Time, TraceSource};
use std::sync::Arc;

/// Upper bound on logical processes. More partitions mean more barrier
/// traffic and more foreign-packet re-interning for no extra overlap
/// once every core has an LP; 8 covers the study hosts.
const MAX_PARTS: u32 = 8;

/// Whether this configuration runs on the partitioned executor.
/// Requires: the caller asked for parallelism, the packet model (the
/// flow models' rate re-solves are global state with no lookahead) and a
/// positive hop latency to serve as conservative lookahead.
pub(crate) fn wants_partitioned(cfg: &SimConfig) -> bool {
    cfg.sim_threads > 1
        && matches!(cfg.model, ModelKind::Packet { .. })
        && cfg.machine.hop_latency() > Time::ZERO
}

/// Owner tables resolved once per run and shared read-only by every LP:
/// rank → LP and link → LP, the latter covering fabric links (by
/// transmitting switch) and both per-rank NIC links (with the rank).
struct Ownership {
    rank_owner: Vec<u32>,
    link_owner: Vec<u32>,
}

fn ownership(machine: &Machine, mapping: &Mapping, part: &Partition) -> Ownership {
    let topo = machine.topology.as_ref();
    let topo_links = topo.num_links();
    let ranks = mapping.ranks();
    // Link ids follow the LinkTable layout: fabric links first, then
    // one injection and one ejection link per rank.
    let mut link_owner = Vec::with_capacity((topo_links + 2 * ranks) as usize);
    for l in 0..topo_links {
        link_owner.push(part.fabric_link_owner(topo, LinkId(l)));
    }
    for r in 0..ranks {
        link_owner.push(part.rank_owner(Rank(r))); // injection
    }
    for r in 0..ranks {
        link_owner.push(part.rank_owner(Rank(r))); // ejection
    }
    let rank_owner = (0..ranks).map(|r| part.rank_owner(Rank(r))).collect();
    Ownership { rank_owner, link_owner }
}

/// The event vocabulary exchanged between partitions: ordinary replay
/// events (always LP-local) and partition-crossing packets.
#[derive(Clone, Copy)]
enum LpEvent {
    Sim(SimEvent),
    Foreign(ForeignPacket),
}

/// One partition of the packet model: a full-shape [`SimState`] of
/// which this LP touches only its owned slice, plus the shared owner
/// tables.
struct PacketLp<'a> {
    lp: usize,
    own: Arc<Ownership>,
    st: SimState<'a>,
}

impl<'a> LogicalProcess for PacketLp<'a> {
    type Event = LpEvent;

    fn handle(&mut self, now: Time, event: LpEvent, out: &mut Outbox<LpEvent>) {
        let mut cx = LpCx { now, lp: self.lp, own: &self.own, out };
        match event {
            LpEvent::Sim(ev) => dispatch(&mut cx, &mut self.st, ev),
            LpEvent::Foreign(fp) => foreign_hop(&mut cx, &mut self.st, fp),
        }
    }

    fn work_units(&self) -> u64 {
        self.st.net.work_units()
    }
}

/// The [`SimCx`] the replay logic sees inside one LP: local events
/// re-enter the LP's own queue; packet hops are routed by the next
/// link's owner.
struct LpCx<'b> {
    now: Time,
    lp: usize,
    own: &'b Ownership,
    out: &'b mut Outbox<LpEvent>,
}

impl SimCx for LpCx<'_> {
    #[inline]
    fn now(&self) -> Time {
        self.now
    }

    #[inline]
    fn sched_at(&mut self, at: Time, ev: SimEvent) {
        // Plain replay events are LP-local by the ownership closure.
        self.out.send_at(at, self.lp, LpEvent::Sim(ev));
    }

    #[inline]
    fn sched_in(&mut self, delay: Time, ev: SimEvent) {
        // The outbox latches clock overflow, mirroring the engine.
        self.out.send(delay, self.lp, LpEvent::Sim(ev));
    }

    #[inline]
    fn sched_hop(&mut self, at: Time, pkt: Packet, next_link: LinkId, m: &Message) {
        let owner = self.own.link_owner[next_link.idx()] as usize;
        if owner == self.lp {
            self.out.send_at(at, self.lp, LpEvent::Sim(SimEvent::PacketHop(pkt)));
        } else {
            // Crossing: message id and route ref die at the border.
            self.out.send_at(at, owner, LpEvent::Foreign(pkt.to_foreign(m)));
        }
    }

    #[inline]
    fn sched_foreign(&mut self, at: Time, fp: ForeignPacket, next_link: LinkId) {
        let owner = self.own.link_owner[next_link.idx()] as usize;
        self.out.send_at(at, owner, LpEvent::Foreign(fp));
    }
}

/// Memory-budget check over the LP states: the budget meters the whole
/// simulation, so per-LP estimates are summed — except the trace data,
/// which every LP borrows from the same allocation and counts once.
fn check_memory(states: &[SimState<'_>], limits: &SimLimits) -> Result<(), SimError> {
    let shared_trace = states.first().map(|s| s.trace_resident_bytes()).unwrap_or(0);
    let resident: u64 = shared_trace
        + states.iter().map(|s| s.resident_bytes() - s.trace_resident_bytes()).sum::<u64>();
    if resident > limits.max_bytes {
        return Err(SimError::MemoryBudget { resident, budget: limits.max_bytes });
    }
    Ok(())
}

/// The partitioned executor behind [`run`](crate::run): partitioning,
/// seeding, the `PdesError` → `SimError` mapping and the two memory
/// barriers. Validation is [`SimState::new`]'s and the result, error
/// precedence and shared telemetry are [`finish`]'s, exactly as for the
/// sequential engine.
pub(crate) fn sim_partitioned(
    src: TraceSource<'_>,
    cfg: &SimConfig,
    limits: SimLimits,
    obs: Option<&MetricSet>,
) -> Result<SimResult, SimError> {
    let span = obs.map(|ms| ms.span("sim.runner.simulate"));
    // The first state build performs the mapping/machine validation the
    // partitioner relies on (it indexes node_of for every rank).
    let first = match SimState::new(src, cfg, obs.is_some()) {
        Ok(st) => st,
        Err(e) => return Err(observe_fail(obs, span, e)),
    };
    let machine = &cfg.machine;
    let partition = Partition::new(machine.topology.as_ref(), &cfg.mapping, MAX_PARTS);
    let lookahead =
        partition.lookahead(machine).expect("wants_partitioned gates on a positive hop latency");
    let own = Arc::new(ownership(machine, &cfg.mapping, &partition));
    let parts = partition.parts() as usize;
    let mut states = vec![first];
    for _ in 1..parts {
        states.push(
            SimState::new(src, cfg, obs.is_some()).expect("config validated by the first build"),
        );
    }
    // The partitioned executor cannot interrupt LPs mid-window, so the
    // memory budget is enforced at the barriers it does have: once here
    // after the states are built, and once after the run (below), when
    // per-LP growth (routes, slabs, link state) is visible.
    if let Err(err) = check_memory(&states, &limits) {
        return Err(observe_fail(obs, span, err));
    }
    let lps: Vec<PacketLp> = states
        .into_iter()
        .enumerate()
        .map(|(i, st)| PacketLp { lp: i, own: Arc::clone(&own), st })
        .collect();

    let mut pdes = WindowedPdes::new(lps, lookahead, cfg.sim_threads);
    if let Some(ms) = obs {
        pdes.observe_into(ms);
    }
    for (r, &lp) in own.rank_owner.iter().enumerate() {
        pdes.seed(Time::ZERO, lp as usize, LpEvent::Sim(SimEvent::Advance(Rank(r as u32))));
    }
    let run = pdes.run_limited(PdesLimits { max_work: limits.max_work, deadline: limits.deadline });
    let processed = pdes.processed();
    if let Some(ms) = obs {
        pdes.export_metrics(ms);
    }
    let states: Vec<SimState> = pdes.into_lps().into_iter().map(|lp| lp.st).collect();

    if let Err(e) = run {
        let err = match e {
            PdesError::Clock(overflow) => {
                SimError::ClockOverflow { model: cfg.model.name(), overflow }
            }
            PdesError::Budget { consumed, budget } => {
                if let Some(ms) = obs {
                    ms.add("sim.budget.consumed", consumed);
                }
                SimError::BudgetExhausted { consumed, budget }
            }
            PdesError::Deadline { elapsed, deadline } => {
                SimError::DeadlineExceeded { elapsed, deadline }
            }
        };
        return Err(observe_fail(obs, span, err));
    }
    // Post-run memory check: a run that ballooned past the budget is
    // reported as such even though it was only caught at the barrier.
    let fault = check_memory(&states, &limits).err();
    // Largest single LP's arena: how unevenly the route working set
    // partitions (each LP interns only routes it injects or relays).
    let lp_arena_max = states.iter().map(|s| s.routes.bytes()).max().unwrap_or(0);
    let left = Leftover {
        states,
        owner: &|r| own.rank_owner[r] as usize,
        processed,
        fault,
        executor_series: &|ms| {
            ms.gauge_max("sim.route.lp_arena_bytes", lp_arena_max);
            // Engine-equivalent counters under the sequential names, so
            // downstream consumers (bench events, report tables) read one
            // schema. Complete packet runs pop every push and cancel
            // nothing, so scheduled == processed and cancelled == 0.
            ms.add("des.engine.processed", processed);
            ms.add("des.engine.scheduled", processed);
            ms.add("des.engine.cancelled", 0);
        },
    };
    finish(cfg, left, obs, span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_workloads::{generate, App, GenConfig};

    /// The windowed executor at one worker — the inline loop production
    /// reaches whenever a topology yields one partition — against the
    /// sequential engine on `tests/pdes_equivalence.rs`'s bench-shape
    /// trace: CG(64) at two ranks per node on cielito, so the 8-way
    /// partition sees real crossings. Every `SimResult` field must match.
    #[test]
    fn inline_windowed_executor_matches_sequential_engine() {
        let mut gcfg = GenConfig::test_default(App::Cg, 64);
        gcfg.machine = "cielito".into();
        gcfg.ranks_per_node = 2;
        gcfg.seed = 99;
        let trace = generate(&gcfg);
        let packet = ModelKind::Packet { packet_bytes: 1024 };
        let mut cfg = SimConfig::new(Machine::cielito(), packet, &trace);
        cfg.sim_threads = 1;
        let seq = crate::simulate(&trace, &cfg);
        let obs = MetricSet::new();
        let inline = sim_partitioned((&trace).into(), &cfg, SimLimits::unlimited(), Some(&obs))
            .expect("run completes");
        assert!(obs.snapshot().counters["des.pdes.crossings"] > 0, "no cross-LP traffic");
        let SimResult {
            model,
            total,
            per_rank,
            comm_time,
            events,
            messages,
            work_units,
            max_link_bytes,
            link_bytes,
        } = inline;
        assert_eq!(model, seq.model);
        assert_eq!(total, seq.total);
        assert_eq!(per_rank, seq.per_rank);
        assert_eq!(comm_time, seq.comm_time);
        assert_eq!(events, seq.events);
        assert_eq!(messages, seq.messages);
        assert_eq!(work_units, seq.work_units);
        assert_eq!(max_link_bytes, seq.max_link_bytes);
        assert_eq!(link_bytes, seq.link_bytes);
    }
}
