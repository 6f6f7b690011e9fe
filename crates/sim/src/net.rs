//! The three network models: packet, flow, and hybrid packet-flow.
//!
//! All three route messages over the machine's topology and model
//! contention on shared directed links — the capability MFACT lacks by
//! design. They differ in granularity and cost, exactly as Section II of
//! the paper lays out:
//!
//! * [`PacketNet`] — every message becomes packets; each packet reserves
//!   each route link exclusively (FIFO per link). Most accurate queueing,
//!   most events (one DES event per packet per hop), and the documented
//!   serialization *over*estimate for multi-hop messages.
//! * [`FlowNet`] — messages are fluid flows sharing link bandwidth
//!   max-min fairly; flow arrivals/departures re-solve the rates and
//!   reschedule completions (the "ripple effect"). Re-solves are batched
//!   per timestamp and only changed rates are rescheduled. Flows live in
//!   a `Vec`-backed slab with a free list — no hashing on the arrival,
//!   re-solve, or completion paths. The rates come from `MaxMin`, a
//!   water-filling solver driven by per-link flow lists and a lazy
//!   min-heap of link shares: O(H log H) per re-solve for H = Σ route
//!   lengths, with a fixed tie-break so rates are reproducible bit for
//!   bit.
//! * [`PFlowNet`] — coarse packets *sample* per-link fluid queues at
//!   injection time and accumulate expected waiting, serialization, and
//!   hop latency arithmetically: channel multiplexing without per-hop
//!   events. SST/Macro 6.1's recommended model.
//!
//! ## Hot-path data layout
//!
//! Per-message state is flat and `Copy` throughout: messages in flight
//! live in a slot-recycling [`MsgSlab`](crate::msg::MsgSlab), routes are
//! interned once per rank pair into a [`RouteArena`] and referenced by an
//! 8-byte [`RouteRef`], and a [`Packet`] is a small plain value — no `Arc`, no
//! `Drop` glue in the engine's event arena. The packet model injects
//! *lazily*: only a message's first packet is scheduled up front; each
//! packet schedules its successor at its own injection-link departure
//! (the NIC's FIFO would have serialized them anyway), so peak queue
//! occupancy is O(in-flight messages), not O(message/packet_bytes).
//!
//! ## Link provisioning
//!
//! The paper characterizes each machine by a per-process Hockney (α, β):
//! those are *application-achievable* figures, so the simulated fabric
//! must reproduce them in the uncongested limit. Each rank therefore
//! gets its own injection and ejection link at the Hockney bandwidth
//! (Gemini/Aries NICs provision multiple channels per node), while
//! switch-to-switch fabric links carry node-aggregated capacity
//! (`β⁻¹ × cores_per_node`). Contention then arises exactly where it
//! does on the real machine: on oversubscribed fabric paths and at
//! incast ejection points — not from an artificial 24-way NIC bottleneck
//! that the per-process calibration already excludes.

use crate::error::SimError;
use crate::hash::IntMap;
use crate::msg::Message;
use crate::runner::{SimEvent, SimState};
use masim_des::{Engine, EventId};
use masim_obs::MetricSet;
use masim_topo::{LinkId, Machine};
use masim_trace::{Rank, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which network model to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelKind {
    /// Packet-level with exclusive channel reservation.
    Packet {
        /// Packet size in bytes (SST recommends 1–8 KiB).
        packet_bytes: u64,
    },
    /// Fluid max-min fair flows.
    Flow,
    /// Hybrid packet-flow (congestion-sampling coarse packets).
    PacketFlow {
        /// Coarse packet size in bytes.
        packet_bytes: u64,
    },
}

impl ModelKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Packet { .. } => "packet",
            ModelKind::Flow => "flow",
            ModelKind::PacketFlow { .. } => "packet-flow",
        }
    }
}

// ---------------------------------------------------------------------
// Interned routes
// ---------------------------------------------------------------------

/// Compact handle to an interned route: a route *id* (index into the
/// [`RouteArena`]'s start table, not a byte offset — total link storage
/// may exceed the `u32` range at mega scale) plus the hop count. 8 bytes
/// and `Copy` — this is what every in-flight packet and flow carries
/// instead of an `Arc<[LinkId]>` clone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteRef {
    off: u32,
    len: u16,
}

impl RouteRef {
    /// Sentinel filling unvisited dense-index cells.
    const NONE: RouteRef = RouteRef { off: u32::MAX, len: 0 };

    /// Number of links on the route.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Interned routes always carry ≥ 2 links (injection + ejection);
    /// only the sentinel is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Ranks up to which the (src, dst) → route index is a dense
/// `src*ranks+dst` table (8 B/cell ⇒ 32 MiB at the limit); larger
/// machines fall back to a hash map. Every study machine is far below
/// the limit, so the hot path is one multiply-add and one load.
const DENSE_RANK_LIMIT: u32 = 2048;

/// Interned route storage: every distinct (src, dst) route's links live
/// back-to-back in one flat `Vec<LinkId>`, written once on first use and
/// addressed by copyable [`RouteRef`] handles thereafter. Replaces the
/// `HashMap<(u32, u32), Arc<[LinkId]>>` route cache — lookups don't
/// hash below `DENSE_RANK_LIMIT` ranks, and resolving a route is a
/// slice borrow, not a refcount round-trip.
pub struct RouteArena {
    storage: Vec<LinkId>,
    /// Start offset in `storage` of each interned route, indexed by
    /// `RouteRef::off`. Indirecting through a `u64` start table is what
    /// lets total link storage grow past the old `u32`-offset ceiling
    /// (4 Gi links) without widening the 8-byte `RouteRef`.
    starts: Vec<u64>,
    ranks: u32,
    dense: Vec<RouteRef>,
    sparse: IntMap<(u32, u32), RouteRef>,
}

impl RouteArena {
    /// Empty arena for a machine hosting `ranks` ranks.
    pub fn new(ranks: u32) -> RouteArena {
        let dense = if ranks <= DENSE_RANK_LIMIT {
            vec![RouteRef::NONE; ranks as usize * ranks as usize]
        } else {
            Vec::new()
        };
        RouteArena {
            storage: Vec::new(),
            starts: Vec::new(),
            ranks,
            dense,
            sparse: IntMap::default(),
        }
    }

    /// The interned route for (src, dst), if already seen.
    #[inline]
    pub fn get(&self, src: Rank, dst: Rank) -> Option<RouteRef> {
        if self.dense.is_empty() {
            self.sparse.get(&(src.0, dst.0)).copied()
        } else {
            let r = self.dense[src.0 as usize * self.ranks as usize + dst.0 as usize];
            if r == RouteRef::NONE {
                None
            } else {
                Some(r)
            }
        }
    }

    /// Intern a freshly built route for (src, dst). The arena's limits
    /// are structural (u32 route ids, u16 hops); hitting one is a typed
    /// [`SimError::RouteArenaExhausted`], never a panic — at mega scale
    /// the old `expect` here was the first thing to blow up. Its
    /// resident bytes count against the run's memory budget instead.
    pub fn try_intern(
        &mut self,
        src: Rank,
        dst: Rank,
        links: &[LinkId],
    ) -> Result<RouteRef, SimError> {
        let Ok(len) = u16::try_from(links.len()) else {
            return Err(self.exhausted(format!("route of {} hops exceeds u16", links.len())));
        };
        // `u32::MAX` itself is reserved so no live route collides with
        // the dense table's `NONE` sentinel.
        if self.starts.len() >= u32::MAX as usize {
            return Err(self.exhausted("route-id space (u32) exhausted".into()));
        }
        let off = self.starts.len() as u32;
        self.starts.push(self.storage.len() as u64);
        self.storage.extend_from_slice(links);
        let r = RouteRef { off, len };
        if self.dense.is_empty() {
            self.sparse.insert((src.0, dst.0), r);
        } else {
            self.dense[src.0 as usize * self.ranks as usize + dst.0 as usize] = r;
        }
        Ok(r)
    }

    fn exhausted(&self, limit: String) -> SimError {
        SimError::RouteArenaExhausted {
            routes: self.starts.len() as u64,
            bytes: self.bytes(),
            limit,
        }
    }

    /// The links of an interned route.
    #[inline]
    pub fn resolve(&self, r: RouteRef) -> &[LinkId] {
        let s = self.starts[r.off as usize] as usize;
        &self.storage[s..s + r.len as usize]
    }

    /// Resident footprint in bytes (flat storage + index), exported as
    /// `sim.route.arena_bytes`.
    pub fn bytes(&self) -> u64 {
        let storage = self.storage.capacity() * std::mem::size_of::<LinkId>();
        let starts = self.starts.capacity() * std::mem::size_of::<u64>();
        let dense = self.dense.capacity() * std::mem::size_of::<RouteRef>();
        let sparse = self.sparse.capacity()
            * (std::mem::size_of::<(u32, u32)>() + std::mem::size_of::<RouteRef>());
        (storage + starts + dense + sparse) as u64
    }
}

// ---------------------------------------------------------------------
// Link table
// ---------------------------------------------------------------------

/// The simulated link table: directed fabric links from the topology
/// plus one virtual injection and ejection link per rank.
pub struct LinkTable {
    /// Per-link capacity in bytes/second.
    caps: Vec<f64>,
    /// Per-link reciprocal capacity (seconds/byte), so the per-packet
    /// serialization cost multiplies instead of divides.
    inv_caps: Vec<f64>,
    /// Per-hop propagation latency.
    hop_lat: Time,
    /// Number of topology links (virtual per-rank links follow).
    topo_links: u32,
    ranks: u32,
}

impl LinkTable {
    /// Build the table for `machine` hosting `ranks` ranks.
    pub fn new(machine: &Machine, ranks: u32) -> LinkTable {
        let topo_links = machine.topology.num_links();
        let rank_cap = machine.net.bandwidth.bytes_per_sec();
        let fabric_cap = rank_cap * machine.cores_per_node as f64;
        let mut caps = vec![fabric_cap; topo_links as usize];
        caps.extend(std::iter::repeat_n(rank_cap, 2 * ranks as usize));
        let inv_caps = caps.iter().map(|&c| c.recip()).collect();
        LinkTable { caps, inv_caps, hop_lat: machine.hop_latency(), topo_links, ranks }
    }

    /// Total number of links (fabric + virtual).
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True when the table is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Estimated resident footprint, for the memory-budget check.
    pub fn resident_bytes(&self) -> u64 {
        ((self.caps.capacity() + self.inv_caps.capacity()) * std::mem::size_of::<f64>()) as u64
    }

    /// Capacity of a link in bytes/second.
    #[inline]
    pub fn cap(&self, l: LinkId) -> f64 {
        self.caps[l.idx()]
    }

    /// Per-hop latency.
    #[inline]
    pub fn hop_lat(&self) -> Time {
        self.hop_lat
    }

    /// Serialization time of `bytes` on link `l`.
    #[inline]
    pub fn ser(&self, l: LinkId, bytes: u64) -> Time {
        Time::from_secs_f64(bytes as f64 * self.inv_caps[l.idx()])
    }

    /// True for topology (fabric) links; false for the virtual per-rank
    /// injection/ejection links. The table has exactly these two
    /// capacity classes (see [`LinkTable::new`]), which is what lets
    /// the packet model memoize [`LinkTable::ser`] per class.
    #[inline]
    pub fn is_fabric(&self, l: LinkId) -> bool {
        l.0 < self.topo_links
    }

    /// [`LinkTable::ser`] by capacity class instead of by link — the
    /// identical expression over the class's reciprocal capacity, so a
    /// memo built from it is bit-identical to per-link calls.
    #[inline]
    pub fn ser_class(&self, fabric: bool, bytes: u64) -> Time {
        let inv = if fabric && self.topo_links > 0 {
            self.inv_caps[0]
        } else {
            self.inv_caps[self.topo_links as usize]
        };
        Time::from_secs_f64(bytes as f64 * inv)
    }

    /// Virtual injection link of a rank.
    pub fn injection(&self, r: Rank) -> LinkId {
        LinkId(self.topo_links + r.0)
    }

    /// Virtual ejection link of a rank.
    pub fn ejection(&self, r: Rank) -> LinkId {
        LinkId(self.topo_links + self.ranks + r.0)
    }

    /// Build the simulated route for a message into `route` (cleared
    /// first): per-rank injection, the topology's fabric hops, per-rank
    /// ejection. Cold path — called once per rank pair, then interned
    /// in the [`RouteArena`].
    pub fn route_into(
        &self,
        machine: &Machine,
        src: Rank,
        dst: Rank,
        src_node: masim_trace::NodeId,
        dst_node: masim_trace::NodeId,
        route: &mut Vec<LinkId>,
    ) {
        route.clear();
        machine.topology.route(src_node, dst_node, route);
        debug_assert!(route.len() >= 2);
        // The topology's node-level injection/ejection links become the
        // per-rank virtual ones.
        if let [first, .., last] = route.as_mut_slice() {
            *first = self.injection(src);
            *last = self.ejection(dst);
        }
    }
}

/// The interned route for a rank pair on distinct nodes, built through
/// the state's scratch buffer and interned on first use — routes are
/// deterministic per pair, so repeated traffic (iterative stencils,
/// collective rounds) is an index load with no per-message allocation.
fn route_of(st: &mut SimState, src: Rank, dst: Rank) -> Result<RouteRef, SimError> {
    if let Some(r) = st.routes.get(src, dst) {
        return Ok(r);
    }
    let (src_node, dst_node) = (st.mapping.node_of(src), st.mapping.node_of(dst));
    st.links.route_into(&st.machine, src, dst, src_node, dst_node, &mut st.route_scratch);
    st.routes.try_intern(src, dst, &st.route_scratch)
}

fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// Model state (one variant active per simulation).
pub enum NetState {
    /// Packet model state.
    Packet(PacketNet),
    /// Flow model state.
    Flow(FlowNet),
    /// Packet-flow model state.
    PFlow(PFlowNet),
}

impl NetState {
    /// Fresh state for `kind` on a machine with `links` total links
    /// (fabric + virtual). All per-link vectors are pre-sized from the
    /// topology so the hot path never grows them.
    pub fn new(kind: ModelKind, links: usize) -> NetState {
        match kind {
            ModelKind::Packet { packet_bytes } => NetState::Packet(PacketNet {
                // Clamped so a single packet's byte count always fits
                // the u32 field of the Copy event payload.
                packet_bytes: packet_bytes.clamp(64, 1 << 30),
                free_at: vec![Time::ZERO; links],
                link_bytes: vec![0; links],
                packets: 0,
                hops: 0,
                ser_bytes: 0,
                ser_fabric: Time::ZERO,
                ser_edge: Time::ZERO,
            }),
            ModelKind::Flow => NetState::Flow(FlowNet {
                slots: Vec::new(),
                free: Vec::new(),
                live: 0,
                link_bytes: vec![0; links],
                recomputes: 0,
                resolve_pending: false,
                injected: 0,
                scr_order: Vec::new(),
                solver: MaxMin::new(links),
            }),
            ModelKind::PacketFlow { packet_bytes } => NetState::PFlow(PFlowNet {
                packet_bytes: packet_bytes.max(64),
                queues: vec![FluidQueue::default(); links],
                link_bytes: vec![0; links],
                packets: 0,
            }),
        }
    }

    /// Total bytes charged to each directed link (for utilization
    /// reports).
    pub fn link_bytes(&self) -> &[u64] {
        match self {
            NetState::Packet(p) => &p.link_bytes,
            NetState::Flow(f) => &f.link_bytes,
            NetState::PFlow(p) => &p.link_bytes,
        }
    }

    /// [`NetState::link_bytes`] by value, for the finished run's
    /// [`SimResult`](crate::SimResult).
    pub(crate) fn into_link_bytes(self) -> Vec<u64> {
        match self {
            NetState::Packet(p) => p.link_bytes,
            NetState::Flow(f) => f.link_bytes,
            NetState::PFlow(p) => p.link_bytes,
        }
    }

    /// Model-specific work counter (packets routed or rate re-solves).
    pub fn work_units(&self) -> u64 {
        match self {
            NetState::Packet(p) => p.packets,
            NetState::Flow(f) => f.recomputes,
            NetState::PFlow(p) => p.packets,
        }
    }

    /// Estimated resident footprint of the model's per-link (and, for
    /// the flow model, per-flow) state, for the memory-budget check.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            NetState::Packet(p) => vec_bytes(&p.free_at) + vec_bytes(&p.link_bytes),
            NetState::Flow(f) => {
                vec_bytes(&f.slots)
                    + vec_bytes(&f.free)
                    + vec_bytes(&f.link_bytes)
                    + vec_bytes(&f.scr_order)
                    + f.solver.resident_bytes()
            }
            NetState::PFlow(p) => vec_bytes(&p.queues) + vec_bytes(&p.link_bytes),
        }
    }

    /// Export the model's telemetry into an observability sink. Plain
    /// integer fields accumulate in the hot path; this copies them out
    /// once after the run, so instrumentation cannot perturb the
    /// simulation.
    pub fn export_metrics(&self, ms: &MetricSet) {
        match self {
            NetState::Packet(p) => {
                ms.add("sim.packet.packets", p.packets);
                ms.add("sim.packet.hops", p.hops);
            }
            NetState::Flow(f) => ms.add("sim.flow.resolves", f.recomputes),
            NetState::PFlow(p) => ms.add("sim.pflow.packets", p.packets),
        }
        let lb = self.link_bytes();
        ms.add("sim.link.bytes_total", lb.iter().sum::<u64>());
        ms.gauge_max("sim.link.bytes_max", lb.iter().copied().max().unwrap_or(0));
        ms.add("sim.link.links_used", lb.iter().filter(|&&b| b > 0).count() as u64);
    }
}

/// Inject message `id` (already interned in the state's
/// [`MsgSlab`](crate::msg::MsgSlab)); the model schedules
/// [`SimEvent::Release`] (sender may reuse its buffer) and
/// [`SimEvent::Deliver`] (payload at destination) events.
pub(crate) fn inject(eng: &mut Engine<SimState>, st: &mut SimState, id: u32) {
    let msg = *st.msgs.get(id);
    let src_node = st.mapping.node_of(msg.src);
    let dst_node = st.mapping.node_of(msg.dst);

    if src_node == dst_node {
        // Intra-node: uncontended Hockney transfer, same cost model as
        // MFACT so the tools agree on local traffic.
        let ser = st.machine.net.bandwidth.transfer_time(msg.bytes);
        let release = eng.now() + ser;
        let deliver = eng.now() + st.machine.net.latency + ser;
        eng.schedule_at(release, SimEvent::Release { src: msg.src, msg: id });
        eng.schedule_at(
            deliver,
            SimEvent::Deliver { dst: msg.dst, src: msg.src, tag: msg.tag, msg: id },
        );
        return;
    }

    // A message that would split into more packets than the u32 sequence
    // space can number is a typed error, not an `assert!` — and never a
    // silent `as u32` truncation of the sequence counter.
    let packet_bytes = match &st.net {
        NetState::Packet(p) => Some(p.packet_bytes),
        NetState::PFlow(p) => Some(p.packet_bytes),
        NetState::Flow(_) => None,
    };
    if let Some(pb) = packet_bytes {
        let n = n_packets(msg.bytes, pb);
        if n > u32::MAX as u64 {
            st.latch_error(SimError::OversizedMessage { bytes: msg.bytes, packets: n });
            return;
        }
    }

    let route = match route_of(st, msg.src, msg.dst) {
        Ok(r) => r,
        Err(e) => {
            // The sender stays blocked; the latched error outranks the
            // deadlock this would otherwise report.
            st.latch_error(e);
            return;
        }
    };
    match &mut st.net {
        NetState::Packet(p) => p.inject(eng, id, msg.bytes, route),
        NetState::Flow(f) => f.inject(eng, id, msg.bytes, route, &st.routes, st.links.hop_lat()),
        NetState::PFlow(p) => {
            // Split borrows: link table and route arena are read-only
            // during sampling.
            p.inject(eng, id, msg, st.routes.resolve(route), &st.links)
        }
    }
}

// ---------------------------------------------------------------------
// Packet model
// ---------------------------------------------------------------------

/// Number of packets a `bytes`-sized message (≥ 1) splits into.
#[inline]
pub(crate) fn n_packets(bytes: u64, packet_bytes: u64) -> u64 {
    debug_assert!(bytes >= 1 && packet_bytes >= 1);
    bytes.div_ceil(packet_bytes)
}

/// Size of packet `i` (0-based): every packet is a full `packet_bytes`
/// except the last, which carries the remainder directly.
#[inline]
pub(crate) fn packet_size(bytes: u64, packet_bytes: u64, i: u64) -> u64 {
    let n = n_packets(bytes, packet_bytes);
    debug_assert!(i < n);
    if i + 1 == n {
        bytes - (n - 1) * packet_bytes
    } else {
        packet_bytes
    }
}

/// Exclusive-reservation packet network.
pub struct PacketNet {
    packet_bytes: u64,
    /// Earliest time each directed link is free.
    free_at: Vec<Time>,
    link_bytes: Vec<u64>,
    packets: u64,
    hops: u64,
    /// Serialization-time memo for the last-seen packet size: all but
    /// the final packet of a message are full-size and the link table
    /// has exactly two capacity classes, so nearly every hop hits this
    /// pair instead of redoing the float math in [`LinkTable::ser`].
    ser_bytes: u64,
    ser_fabric: Time,
    ser_edge: Time,
}

/// One in-flight packet (the payload of [`SimEvent::PacketHop`]): plain
/// `Copy` data addressing the message slab and route arena, small
/// enough to live inline in the engine's event arena with no `Drop`
/// glue. Internals are private to the packet model.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Message slab id.
    msg: u32,
    /// Interned route.
    route: RouteRef,
    /// Packet ordinal within its message (drives lazy injection).
    seq: u32,
    /// Current hop index into the route.
    hop: u16,
    /// This packet's payload bytes (≤ packet_bytes ≤ 2^30).
    bytes: u32,
    /// Last packet of its message?
    is_last: bool,
}

impl PacketNet {
    /// The `i`-th packet of message `id`, sized directly from the
    /// message length (no running remainder).
    fn packet(&self, id: u32, bytes: u64, route: RouteRef, i: u64) -> Packet {
        Packet {
            msg: id,
            route,
            seq: i as u32,
            hop: 0,
            bytes: packet_size(bytes, self.packet_bytes, i) as u32,
            is_last: i + 1 == n_packets(bytes, self.packet_bytes),
        }
    }

    /// Reserve `link` for a `bytes`-sized packet arriving at `now`:
    /// FIFO behind the link's previous occupant, serialization by
    /// capacity class (memoized), byte/hop accounting. Returns the
    /// departure time and the arrival time at the next hop.
    fn reserve(&mut self, links: &LinkTable, now: Time, link: LinkId, bytes: u32) -> (Time, Time) {
        if bytes as u64 != self.ser_bytes {
            self.ser_bytes = bytes as u64;
            self.ser_fabric = links.ser_class(true, bytes as u64);
            self.ser_edge = links.ser_class(false, bytes as u64);
        }
        let ser = if links.is_fabric(link) { self.ser_fabric } else { self.ser_edge };
        debug_assert_eq!(ser, links.ser(link, bytes as u64));
        let start = now.max(self.free_at[link.idx()]);
        let depart = start + ser;
        self.free_at[link.idx()] = depart;
        self.link_bytes[link.idx()] += bytes as u64;
        self.hops += 1;
        (depart, depart + links.hop_lat())
    }

    fn inject(&mut self, eng: &mut Engine<SimState>, id: u32, bytes: u64, route: RouteRef) {
        let n = n_packets(bytes, self.packet_bytes);
        // Oversized messages were rejected with a typed error at
        // injection (see `inject`), so the sequence counter fits.
        debug_assert!(n <= u32::MAX as u64);
        self.packets += n;
        // Lazy injection: only the head packet is scheduled; each packet
        // schedules its successor at its own injection-link departure
        // (see `packet_hop`), which is when the NIC's FIFO would have
        // let it start serializing anyway. Peak queue occupancy is
        // O(in-flight messages).
        let pkt = self.packet(id, bytes, route, 0);
        eng.schedule_at(eng.now(), SimEvent::PacketHop(pkt));
    }
}

/// One packet crossing one link: reserve it, then either hop onward or
/// deliver.
pub(crate) fn packet_hop(eng: &mut Engine<SimState>, st: &mut SimState, mut pkt: Packet) {
    let (link, has_next) = {
        let route = st.routes.resolve(pkt.route);
        let h = pkt.hop as usize;
        (route[h], h + 1 < route.len())
    };
    let NetState::Packet(net) = &mut st.net else {
        unreachable!("packet event in non-packet model")
    };
    let (depart, arrive_next) = net.reserve(&st.links, eng.now(), link, pkt.bytes);

    // The message is read only where it is still in flight: at hop 0
    // its last packet has not released the sender, and the last packet
    // delivers it. A middle packet may trail the last one and must not
    // look, since the retired slot may already hold another message.
    if pkt.hop == 0 {
        let m = *st.msgs.get(pkt.msg);
        if pkt.is_last {
            // Sender may reuse its buffer once the last packet clears
            // the NIC.
            eng.schedule_at(depart, SimEvent::Release { src: m.src, msg: pkt.msg });
        } else {
            // Chain the successor: it could not have begun serializing
            // before this packet departs the injection link anyway.
            let next = net.packet(pkt.msg, m.bytes, pkt.route, pkt.seq as u64 + 1);
            eng.schedule_at(depart, SimEvent::PacketHop(next));
        }
    }

    pkt.hop += 1;
    if has_next {
        eng.schedule_at(arrive_next, SimEvent::PacketHop(pkt));
    } else if pkt.is_last {
        let m = *st.msgs.get(pkt.msg);
        eng.schedule_at(
            arrive_next,
            SimEvent::Deliver { dst: m.dst, src: m.src, tag: m.tag, msg: pkt.msg },
        );
    }
}

// ---------------------------------------------------------------------
// Flow model
// ---------------------------------------------------------------------

/// Flow-model event-aggregation quantum: arrivals, rate re-solves, and
/// completions snap to this grid (1 µs — far below every latency scale
/// in the study, so predictions move by well under a percent while the
/// ripple cost drops by orders of magnitude).
const FLOW_QUANTUM_PS: u64 = 1_000_000;

/// A fluid flow in flight.
struct Flow {
    /// Message slab id.
    msg: u32,
    /// Injection ordinal among the run's flows: the re-solve order key.
    /// Unlike the slab id it is never reused.
    ord: u64,
    route: RouteRef,
    remaining: f64,
    rate: f64, // bytes/sec
    last_update: Time,
    completion: Option<EventId>,
    tail_latency: Time,
}

/// Max-min fair fluid network.
///
/// Active flows live in `slots`, a `Vec`-backed slab with a free list:
/// arrivals reuse freed slots, completions are O(1) removals, and the
/// per-resolve settle pass is a dense scan instead of a hash-map walk.
/// Re-solve ordering is by injection ordinal (collected and sorted per
/// resolve), so rate assignment and completion scheduling depend
/// neither on the flow slab's layout nor on which message-slab slots
/// were recycled. The rates themselves come from `MaxMin`,
/// which sees only flow indices in that order, their routes and the
/// link capacities. All re-solve scratch (`scr_order` and the solver's
/// buffers) lives here, so the steady-state resolve path performs zero
/// heap allocations (asserted by a counting-allocator test).
pub struct FlowNet {
    slots: Vec<Option<Flow>>,
    free: Vec<u32>,
    /// Live (in-flight) flow count.
    live: usize,
    link_bytes: Vec<u64>,
    /// Flow updates performed across all re-solves (the ripple-effect
    /// cost metric: every settled flow per re-solve counts).
    recomputes: u64,
    /// A re-solve event is already queued for the current timestamp.
    resolve_pending: bool,
    /// Flows injected so far (the next flow's `ord`).
    injected: u64,
    /// Per-resolve (injection ordinal, slot) list, reused across re-solves.
    scr_order: Vec<(u64, u32)>,
    solver: MaxMin,
}

/// Per-link solver state, one 16-byte record so a hop's update touches
/// one cache line.
#[derive(Clone, Copy)]
struct LinkScratch {
    /// Capacity not yet handed to frozen flows.
    residual: f64,
    /// Unfrozen flows crossing the link; 0 between solves.
    count: u32,
    /// The link's position in `MaxMin::touched` during a solve.
    pos: u32,
}

impl LinkScratch {
    /// The heap entry for the link's current fair share — always the
    /// division `residual / count`, so an entry is outdated exactly
    /// when it no longer equals this.
    fn entry(self) -> Reverse<(u64, u32)> {
        Reverse(((self.residual / self.count as f64).to_bits(), self.pos))
    }
}

/// Max-min fair rate solver (progressive water-filling) and its scratch.
///
/// Each level takes the link with the smallest fair share
/// `residual / count`, freezes its unfrozen flows at that share, and
/// charges the share to every link those flows cross. The tightest
/// link comes from a min-heap keyed by `(share, position in touched)`
/// with lazy invalidation, its flows from a per-link CSR list in flow
/// order, so one solve costs O(H log H) for H = Σ route lengths,
/// however many levels there are.
///
/// Tie-break rule: among links at the same share the one first touched
/// (lowest position, i.e. first seen walking the flows in order) is
/// frozen first — what a linear first-strict-minimum scan over
/// `touched` picks. Together with freezing a link's flows in flow order
/// this fixes the order of every floating-point subtraction on every
/// link, so the rates are a pure function of the inputs, bit for bit.
struct MaxMin {
    /// Indexed by link id.
    link: Vec<LinkScratch>,
    /// Link ids crossed by some flow, in first-seen order.
    touched: Vec<u32>,
    /// CSR offsets into `adj`: the flows crossing `touched[p]` are
    /// `adj[start[p]..start[p + 1]]`, ascending.
    start: Vec<u32>,
    adj: Vec<u32>,
    /// Candidate `(share bits, position)` entries. A link's share only
    /// rises during a solve, so outdated entries surface before the
    /// current one and are dropped on pop. Shares are never negative
    /// (`residual` starts at a capacity ≥ 0 and is clamped at
    /// `+0.0`), so bit order is numeric order.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl MaxMin {
    fn new(links: usize) -> MaxMin {
        MaxMin {
            link: vec![LinkScratch { residual: 0.0, count: 0, pos: 0 }; links],
            touched: Vec::with_capacity(links.min(1024)),
            start: Vec::new(),
            adj: Vec::new(),
            heap: BinaryHeap::new(),
            frozen: Vec::new(),
            rates: Vec::new(),
        }
    }

    fn resident_bytes(&self) -> u64 {
        let heap = self.heap.capacity() * std::mem::size_of::<Reverse<(u64, u32)>>();
        vec_bytes(&self.link)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.start)
            + vec_bytes(&self.adj)
            + heap as u64
            + vec_bytes(&self.frozen)
            + vec_bytes(&self.rates)
    }

    /// Max-min fair rates of flows `0..n`, flow `k` crossing the links
    /// `route(k)`, over links of capacity `caps[link]` (bytes/second).
    /// A flow with an empty route gets 0.0. Allocation-free once the
    /// scratch has grown to the largest problem seen.
    fn solve<'r>(
        &mut self,
        n: usize,
        route: impl Fn(usize) -> &'r [LinkId],
        caps: &[f64],
    ) -> &[f64] {
        debug_assert!(self.touched.is_empty() && self.heap.is_empty());
        // Count flows per link; first sight fixes a link's position.
        for k in 0..n {
            for l in route(k) {
                let s = &mut self.link[l.idx()];
                if s.count == 0 {
                    s.pos = self.touched.len() as u32;
                    s.residual = caps[l.idx()];
                    self.touched.push(l.0);
                }
                s.count += 1;
            }
        }
        // CSR fill. Offsets are built one slot to the right so that
        // `start[p + 1]` serves as link p's write cursor and ends up as
        // its end offset.
        let links = self.touched.len();
        self.start.clear();
        self.start.resize(links + 2, 0);
        for (p, &l) in self.touched.iter().enumerate() {
            self.start[p + 2] = self.start[p + 1] + self.link[l as usize].count;
        }
        let hops = self.start[links + 1] as usize;
        self.adj.clear();
        self.adj.resize(hops, 0);
        for k in 0..n {
            for l in route(k) {
                let cursor = &mut self.start[self.link[l.idx()].pos as usize + 1];
                self.adj[*cursor as usize] = k as u32;
                *cursor += 1;
            }
        }
        // Every entry ever pushed: one per link up front, then at most
        // one per hop of a flow being frozen.
        self.heap.reserve(links + hops);
        for &l in &self.touched {
            self.heap.push(self.link[l as usize].entry());
        }
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        let mut n_frozen = 0;
        while n_frozen < n {
            let Some(popped) = self.heap.pop() else { break };
            let Reverse((bits, p)) = popped;
            let tight = self.link[self.touched[p as usize] as usize];
            if tight.count == 0 || tight.entry() != popped {
                continue; // outdated entry
            }
            let share = f64::from_bits(bits);
            // Freeze the tightest link's unfrozen flows at its share.
            let (lo, hi) = (self.start[p as usize], self.start[p as usize + 1]);
            for &k in &self.adj[lo as usize..hi as usize] {
                if std::mem::replace(&mut self.frozen[k as usize], true) {
                    continue;
                }
                self.rates[k as usize] = share;
                n_frozen += 1;
                for l in route(k as usize) {
                    let s = &mut self.link[l.idx()];
                    s.residual = (s.residual - share).max(0.0);
                    s.count -= 1;
                    if s.count > 0 {
                        self.heap.push(s.entry());
                    }
                }
            }
        }
        // Every link with flows left has a current heap entry, so both
        // ways out of the loop leave every count at 0 for the next solve.
        debug_assert!(self.touched.iter().all(|&l| self.link[l as usize].count == 0));
        self.touched.clear();
        self.heap.clear();
        &self.rates
    }
}

impl FlowNet {
    fn inject(
        &mut self,
        eng: &mut Engine<SimState>,
        id: u32,
        bytes: u64,
        route: RouteRef,
        routes: &RouteArena,
        hop_lat: Time,
    ) {
        for l in routes.resolve(route) {
            self.link_bytes[l.idx()] += bytes;
        }
        let flow = Flow {
            msg: id,
            ord: self.injected,
            route,
            remaining: bytes as f64,
            rate: 0.0,
            last_update: eng.now(),
            completion: None,
            tail_latency: hop_lat * route.len() as u64,
        };
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(flow);
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "flow slab exhausted");
                self.slots.push(Some(flow));
            }
        }
        self.injected += 1;
        self.live += 1;
        self.schedule_resolve(eng);
    }

    /// Queue one re-solve at the next quantum boundary, batching all
    /// arrivals and departures in the window. Deferring arrivals by up
    /// to [`FLOW_QUANTUM_PS`] collapses a P-flow burst (an all-to-all
    /// round, say) into a single ripple re-solve instead of P of them —
    /// this is why the flow model is cheaper than per-packet simulation,
    /// as the paper's Figure 1 measures.
    fn schedule_resolve(&mut self, eng: &mut Engine<SimState>) {
        if self.resolve_pending {
            return;
        }
        self.resolve_pending = true;
        let at = Time::from_ps((eng.now().as_ps() / FLOW_QUANTUM_PS + 1) * FLOW_QUANTUM_PS);
        eng.schedule_at(at, SimEvent::FlowResolve);
    }
}

/// Dispatch a [`SimEvent::FlowResolve`]: clear the pending flag and
/// re-solve (split borrow: link table and route arena are read-only
/// here).
pub(crate) fn on_flow_resolve(eng: &mut Engine<SimState>, st: &mut SimState) {
    let SimState { net, links, routes, .. } = st;
    let NetState::Flow(net) = net else { unreachable!("flow event in non-flow model") };
    net.resolve_pending = false;
    flow_resolve(eng, net, links, routes);
}

/// Settle elapsed transfer progress, re-solve max-min rates, and
/// reschedule completions whose rate changed (the ripple).
///
/// Allocation-free on the steady-state path: the order list and the
/// solver's buffers are owned by [`FlowNet`] and only grow while the
/// live-flow high-water mark is still rising.
fn flow_resolve(
    eng: &mut Engine<SimState>,
    net: &mut FlowNet,
    links: &LinkTable,
    routes: &RouteArena,
) {
    #[cfg(test)]
    let allocs_at_entry = crate::alloc_counter::count();
    net.recomputes += net.live as u64; // every active flow updates
    let now = eng.now();
    let FlowNet { slots, scr_order: order, solver, .. } = net;
    // 1. Settle progress at old rates; collect the deterministic
    // (injection ordinal, slot) order — by ordinal, not slot or message
    // id, so slab layout and slot reuse never affect scheduling order.
    order.clear();
    for (slot, s) in slots.iter_mut().enumerate() {
        let Some(f) = s else { continue };
        let dt = (now - f.last_update).as_secs_f64();
        f.remaining = (f.remaining - f.rate * dt).max(0.0);
        f.last_update = now;
        order.push((f.ord, slot as u32));
    }
    order.sort_unstable();

    // 2. Max-min allocation over the flows in that order.
    let route_of =
        |k: usize| routes.resolve(slots[order[k].1 as usize].as_ref().expect("flow exists").route);
    let rates = solver.solve(order.len(), route_of, &links.caps);

    // The solver proper ends here: settle, water-fill, and rate
    // assignment above must be allocation-free in steady state (step 3
    // below hands completions to the engine, whose queue reallocates
    // only on capacity-doubling as the live-flow high-water mark rises).
    #[cfg(test)]
    crate::alloc_counter::record_resolve(crate::alloc_counter::count() - allocs_at_entry);
    // 3. Apply rates; reschedule only the completions that moved.
    // Completion times are quantized up to the same grid so that flows
    // draining together complete at the same instant and their removals
    // batch into a single ripple re-solve.
    const QUANTUM_PS: u64 = FLOW_QUANTUM_PS;
    for (k, &(_, slot)) in order.iter().enumerate() {
        let f = slots[slot as usize].as_mut().expect("flow exists");
        let rate = rates[k].max(1.0);
        let rate_changed = (rate - f.rate).abs() > f.rate * 1e-12 + 1e-6;
        f.rate = rate;
        if !rate_changed && f.completion.is_some() {
            continue; // same rate, same remaining trajectory
        }
        if let Some(ev) = f.completion.take() {
            eng.cancel(ev);
        }
        let secs = f.remaining / f.rate;
        let at = now + Time::from_secs_f64(secs);
        let at = Time::from_ps(at.as_ps().div_ceil(QUANTUM_PS) * QUANTUM_PS);
        let ev = eng.schedule_at(at, SimEvent::FlowComplete { slot, msg: f.msg });
        f.completion = Some(ev);
    }
}

/// A flow drained: remove it, ripple the rates, and fire callbacks. The
/// message id double-checks the slot against stale completions for a
/// previous occupant.
pub(crate) fn flow_complete(eng: &mut Engine<SimState>, st: &mut SimState, slot: u32, msg: u32) {
    let NetState::Flow(net) = &mut st.net else { unreachable!("flow event in non-flow model") };
    let flow = match net.slots.get_mut(slot as usize) {
        Some(s) if s.as_ref().is_some_and(|f| f.msg == msg) => s.take().expect("checked"),
        _ => return, // stale completion for a recycled slot
    };
    net.free.push(slot);
    net.live -= 1;
    net.schedule_resolve(eng);
    let m = st.msgs.get(msg);
    // Sender buffer freed at drain; payload lands after the route's
    // accumulated hop latency.
    let deliver_at = eng.now() + flow.tail_latency;
    eng.schedule_at(eng.now(), SimEvent::Release { src: m.src, msg });
    eng.schedule_at(deliver_at, SimEvent::Deliver { dst: m.dst, src: m.src, tag: m.tag, msg });
}

// ---------------------------------------------------------------------
// Packet-flow model
// ---------------------------------------------------------------------

/// Fluid queue state per link for the congestion-sampling model.
#[derive(Clone, Copy, Debug, Default)]
pub struct FluidQueue {
    backlog: f64, // bytes
    last: Time,
}

impl FluidQueue {
    /// Drain the queue to time `t` at service rate `cap` (bytes/sec),
    /// returning the remaining backlog. Samples arriving out of time
    /// order (a packet-flow approximation artifact) do not rewind the
    /// queue clock.
    fn drained(&self, t: Time, cap: f64) -> f64 {
        if t <= self.last {
            return self.backlog;
        }
        let dt = (t - self.last).as_secs_f64();
        (self.backlog - cap * dt).max(0.0)
    }
}

/// Hybrid packet-flow network: coarse packets sample link congestion.
pub struct PFlowNet {
    packet_bytes: u64,
    queues: Vec<FluidQueue>,
    link_bytes: Vec<u64>,
    packets: u64,
}

impl PFlowNet {
    fn inject(
        &mut self,
        eng: &mut Engine<SimState>,
        id: u32,
        msg: Message,
        route: &[LinkId],
        links: &LinkTable,
    ) {
        let n = n_packets(msg.bytes, self.packet_bytes);
        self.packets += n;
        let hop_lat = links.hop_lat();
        let mut release_at = eng.now();
        let mut deliver_at = eng.now();
        for i in 0..n {
            let bytes = packet_size(msg.bytes, self.packet_bytes, i);
            // Walk the route, sampling each link's expected queueing
            // delay and adding our own bytes to its backlog. Channel
            // multiplexing: the packet's own serialization is charged
            // once (at injection); downstream links charge only their
            // sampled queueing wait plus hop latency, so back-to-back
            // packets pipeline instead of re-serializing per hop (the
            // packet model's documented overestimate).
            let mut t = eng.now();
            for (h, l) in route.iter().enumerate() {
                let cap = links.cap(*l);
                let q = &mut self.queues[l.idx()];
                let backlog = q.drained(t, cap);
                let wait = Time::from_secs_f64(backlog / cap);
                q.backlog = backlog + bytes as f64;
                q.last = q.last.max(t);
                self.link_bytes[l.idx()] += bytes;
                t = t + wait + hop_lat;
                if h == 0 {
                    t += links.ser(*l, bytes);
                    // Injection complete once the packet clears the NIC.
                    release_at = t.saturating_sub(hop_lat);
                }
            }
            deliver_at = t;
        }
        let m = msg;
        eng.schedule_at(release_at.max(eng.now()), SimEvent::Release { src: m.src, msg: id });
        eng.schedule_at(
            deliver_at.max(eng.now()),
            SimEvent::Deliver { dst: m.dst, src: m.src, tag: m.tag, msg: id },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin packet count and sizes for the three interesting shapes. The
    /// replay layer never injects 0 bytes (zero-byte MPI messages carry
    /// a 1-byte header stand-in), so the minimum input here is 1.
    #[test]
    fn packet_sizing_pins_count_and_sizes() {
        // Header-only message (a zero-byte send after the max(1) clamp):
        // one packet carrying the single byte.
        assert_eq!(n_packets(1, 1024), 1);
        assert_eq!(packet_size(1, 1024, 0), 1);

        // Exact multiple: all packets full, no phantom empty tail.
        assert_eq!(n_packets(4096, 1024), 4);
        for i in 0..4 {
            assert_eq!(packet_size(4096, 1024, i), 1024);
        }

        // Remainder: full packets then the remainder, computed directly
        // (not via a running `rem -= ...` loop).
        assert_eq!(n_packets(4097, 1024), 5);
        for i in 0..4 {
            assert_eq!(packet_size(4097, 1024, i), 1024);
        }
        assert_eq!(packet_size(4097, 1024, 4), 1);

        // Sub-packet message: one packet of exactly the message size.
        assert_eq!(n_packets(777, 1024), 1);
        assert_eq!(packet_size(777, 1024, 0), 777);

        // Sizes always re-sum to the message.
        for bytes in [1u64, 63, 64, 65, 1024, 4095, 4096, 4097, 1 << 20] {
            let total: u64 = (0..n_packets(bytes, 1024)).map(|i| packet_size(bytes, 1024, i)).sum();
            assert_eq!(total, bytes, "bytes={bytes}");
        }
    }

    #[test]
    fn route_arena_interns_and_resolves() {
        let mut arena = RouteArena::new(8);
        assert!(arena.get(Rank(1), Rank(2)).is_none());
        let links = [LinkId(10), LinkId(3), LinkId(20)];
        let r = arena.try_intern(Rank(1), Rank(2), &links).unwrap();
        assert_eq!(arena.get(Rank(1), Rank(2)), Some(r));
        assert_eq!(arena.resolve(r), &links);
        assert_eq!(r.len(), 3);
        assert_eq!(arena.starts.len(), 1);
        assert!(arena.bytes() > 0);
        // A second pair lands behind the first in the flat storage.
        let r2 = arena.try_intern(Rank(2), Rank(1), &[LinkId(7), LinkId(8)]).unwrap();
        assert_eq!(arena.resolve(r2), &[LinkId(7), LinkId(8)]);
        assert_eq!(arena.resolve(r), &links, "earlier routes undisturbed");
    }

    #[test]
    fn route_arena_sparse_fallback_above_dense_limit() {
        let ranks = DENSE_RANK_LIMIT + 1;
        let mut arena = RouteArena::new(ranks);
        let src = Rank(ranks - 1);
        let dst = Rank(0);
        assert!(arena.get(src, dst).is_none());
        let r = arena.try_intern(src, dst, &[LinkId(1), LinkId(2)]).unwrap();
        assert_eq!(arena.get(src, dst), Some(r));
        assert_eq!(arena.resolve(r), &[LinkId(1), LinkId(2)]);
        // The dense index was never built: footprint stays tiny.
        assert!(arena.bytes() < 1 << 16);
    }

    /// The sparse (hash) index above [`DENSE_RANK_LIMIT`] must be
    /// observationally identical to the dense table: same handles back
    /// from `get`, same resolved links, same intern counts — only the
    /// footprint differs. Exercised at the boundary (2 048 ranks dense,
    /// 2 049 sparse) and well past it (4 096).
    #[test]
    fn route_arena_sparse_matches_dense_at_the_boundary() {
        // Deterministic synthetic routes over a few hundred pairs.
        let route_of = |src: u32, dst: u32| -> Vec<LinkId> {
            let len = 2 + ((src ^ dst) % 5) as usize;
            (0..len as u32).map(|h| LinkId(src.wrapping_mul(31) ^ dst ^ h)).collect()
        };
        for ranks in [DENSE_RANK_LIMIT, DENSE_RANK_LIMIT + 1, 4096] {
            let mut arena = RouteArena::new(ranks);
            let pairs: Vec<(Rank, Rank)> = (0..300u32)
                .map(|i| (Rank(i * 7 % ranks), Rank((i * 13 + 1) % ranks)))
                .filter(|(s, d)| s != d)
                .collect();
            let mut refs = Vec::new();
            for &(s, d) in &pairs {
                if arena.get(s, d).is_none() {
                    let links = route_of(s.0, d.0);
                    let r = arena.try_intern(s, d, &links).unwrap();
                    refs.push((s, d, r, links));
                }
            }
            for (s, d, r, links) in &refs {
                assert_eq!(arena.get(*s, *d), Some(*r), "ranks={ranks}");
                assert_eq!(arena.resolve(*r), links.as_slice(), "ranks={ranks}");
            }
            assert_eq!(arena.starts.len(), refs.len(), "ranks={ranks}");
        }
    }

    /// A route longer than the u16 hop field is a typed error carrying
    /// the arena's state, never the old `expect` panic.
    #[test]
    fn route_arena_hop_limit_is_a_typed_error() {
        let mut arena = RouteArena::new(4);
        arena.try_intern(Rank(1), Rank(2), &[LinkId(1), LinkId(2)]).unwrap();
        let long = vec![LinkId(1); u16::MAX as usize + 1];
        match arena.try_intern(Rank(0), Rank(1), &long) {
            Err(SimError::RouteArenaExhausted { routes, limit, .. }) => {
                assert_eq!(routes, 1);
                assert!(limit.contains("hops"), "{limit}")
            }
            other => panic!("wrong result: {other:?}"),
        }
        assert!(arena.get(Rank(0), Rank(1)).is_none(), "a rejected route is not interned");
    }

    /// Acceptance gate for the scratch-hoisting rework: once the
    /// live-flow high-water mark is reached, the flow solver — settle,
    /// water-fill, rate assignment — performs zero heap allocations;
    /// everything runs out of the `scr_*` buffers hoisted into
    /// [`FlowNet`]. (Completion *rescheduling* hands events to the
    /// engine, whose arena and queue recycle capacity and reallocate
    /// only on capacity-doubling while the pending high-water mark still
    /// rises; that boundary is where the measured window ends.)
    #[test]
    fn flow_resolve_steady_state_allocates_nothing() {
        use masim_workloads::{generate, App, GenConfig};
        let trace = generate(&GenConfig::test_default(App::Lulesh, 27));
        let machine = masim_topo::Machine::cielito();
        let cfg = crate::SimConfig::new(machine, ModelKind::Flow, &trace);
        crate::alloc_counter::reset();
        let result = crate::run(&trace, &cfg, crate::SimLimits::unlimited(), None)
            .expect("simulation completes");
        assert!(result.work_units > 0, "flow model ran no re-solves");
        let deltas = crate::alloc_counter::take();
        assert!(deltas.len() > 8, "trace too small to exercise steady state");
        // The warmup prefix may grow scratch and slab capacity; the back
        // half of the run must be allocation-free. Deterministic trace,
        // deterministic allocator traffic — this is exact, not a bound.
        let tail = &deltas[deltas.len() / 2..];
        assert!(
            tail.iter().all(|&d| d == 0),
            "steady-state flow re-solves allocated: {:?}",
            tail.iter().filter(|&&d| d > 0).collect::<Vec<_>>()
        );
    }

    /// The water-filling level loop this solver replaced, kept verbatim
    /// as the reference: every level rescans all touched links for the
    /// first strict minimum share, then every flow's whole route for
    /// membership of that link.
    fn max_min_rates_naive(routes: &[Vec<LinkId>], caps: &[f64]) -> Vec<f64> {
        let mut scr_residual = vec![0.0; caps.len()];
        let mut scr_count = vec![0u32; caps.len()];
        let mut scr_touched: Vec<u32> = Vec::new();
        for route in routes {
            for l in route {
                let i = l.idx();
                if scr_count[i] == 0 {
                    scr_touched.push(l.0);
                    scr_residual[i] = caps[i];
                }
                scr_count[i] += 1;
            }
        }
        let mut rates = vec![0.0; routes.len()];
        let mut frozen = vec![false; routes.len()];
        let mut n_frozen = 0usize;
        while n_frozen < routes.len() {
            // Tightest link.
            let mut best: Option<(usize, f64)> = None;
            for &l in &scr_touched {
                let i = l as usize;
                if scr_count[i] == 0 {
                    continue;
                }
                let share = scr_residual[i] / scr_count[i] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((i, share));
                }
            }
            let Some((tight, share)) = best else { break };
            // Freeze that link's unfrozen flows at the fair share.
            for (k, route) in routes.iter().enumerate() {
                if frozen[k] {
                    continue;
                }
                if !route.iter().any(|l| l.idx() == tight) {
                    continue;
                }
                frozen[k] = true;
                rates[k] = share;
                n_frozen += 1;
                for l in route {
                    let i = l.idx();
                    scr_residual[i] = (scr_residual[i] - share).max(0.0);
                    scr_count[i] -= 1;
                }
            }
        }
        rates
    }

    /// Solver inputs for the reference-equivalence and invariant tests:
    /// 2 000 seeded random problems (1–400 flows of 2–12 hops drawn
    /// with repetition from 4–600 links, so small link sets put a link
    /// on one route more than once; two capacity classes, fabric =
    /// edge × cores per node, as [`LinkTable::new`] builds) followed by
    /// the hostile shapes.
    fn for_each_max_min_case(mut f: impl FnMut(&str, &[Vec<LinkId>], &[f64])) {
        let mut rng = masim_rng::Rng::seed_from_u64(0x16_f10e);
        for case in 0..2000 {
            let links = rng.gen_range_usize(4, 601);
            let fabric = rng.gen_range_usize(0, links + 1);
            let edge_cap = *rng.choose(&[1.0e9, 4.375e9, 5.2e9, 1.25e10]);
            let cores = *rng.choose(&[16.0, 24.0, 32.0]);
            let caps: Vec<f64> =
                (0..links).map(|l| if l < fabric { edge_cap * cores } else { edge_cap }).collect();
            // Squared so most problems are small and the naive
            // reference stays affordable in a debug build.
            let flows = 1 + (399.0 * rng.next_f64().powi(2)) as usize;
            let routes: Vec<Vec<LinkId>> = (0..flows)
                .map(|_| {
                    let hops = rng.gen_range_usize(2, 13);
                    (0..hops).map(|_| LinkId(rng.gen_range_usize(0, links) as u32)).collect()
                })
                .collect();
            f(&format!("random #{case}"), &routes, &caps);
        }

        let on = |ls: &[u32]| -> Vec<LinkId> { ls.iter().map(|&l| LinkId(l)).collect() };
        // Every flow on the same single bottleneck.
        let routes: Vec<_> = (0..300).map(|k| on(&[7, 100 + k, 7 + k % 3])).collect();
        f("all flows on one link", &routes, &vec![5.2e9; 400]);
        // No two flows share a link: one level per flow.
        let routes: Vec<_> = (0..200).map(|k| on(&[2 * k, 2 * k + 1])).collect();
        f("disjoint flows", &routes, &vec![1.0e9; 400]);
        // Many links tied at the same share — k flows on each of 50
        // links of equal capacity, chained through shared neighbours so
        // freezing one link moves the next one's share by ulps only.
        let routes: Vec<_> = (0..150).map(|k| on(&[k / 3, (k / 3 + 1) % 50, 50 + k])).collect();
        f("links tied at one share", &routes, &vec![3.0e9; 200]);
        // The same tie with thirds that do not divide exactly.
        let routes: Vec<_> = (0..150).map(|k| on(&[k % 50, 50 + k % 7])).collect();
        f("tied thirds", &routes, &vec![1.0; 57]);
        // Flows all of whose links have nothing to give: the share is
        // 0.0 and the resolve's `rates.max(1.0)` floor is what applies.
        let mut caps = vec![2.0e9; 20];
        caps[..6].fill(0.0);
        let routes = vec![on(&[0, 1]), on(&[2, 3, 4]), on(&[5, 10]), on(&[10, 11]), on(&[1, 2])];
        f("exhausted links", &routes, &caps);
        // Empty problem and empty routes.
        f("no flows", &[], &[1.0; 4]);
        f("empty routes", &[vec![], on(&[1, 2]), vec![]], &[1.0; 4]);
    }

    /// The CSR + heap solver returns the reference loop's rates bit for
    /// bit — same first-minimum tie-break, same per-link subtraction
    /// order — with its scratch reused from one problem to the next as
    /// in a run. CI runs this by name in release.
    #[test]
    fn max_min_matches_reference_bit_for_bit() {
        let mut solver = MaxMin::new(600);
        let mut cases = 0;
        for_each_max_min_case(|name, routes, caps| {
            let want = max_min_rates_naive(routes, caps);
            let got = solver.solve(routes.len(), |k| &routes[k], caps);
            assert_eq!(got.len(), want.len(), "{name}");
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{name}: flow {k}: {g} vs {w}");
            }
            cases += 1;
        });
        assert!(cases >= 2000);
    }

    /// Max-min fairness of the solver's answer: no link carries more
    /// than its capacity, and every flow is bottlenecked — it crosses a
    /// saturated link on which no other flow has a higher rate. (A
    /// route naming a link twice loads it twice, as the solver counts.)
    #[test]
    fn max_min_rates_saturate_a_bottleneck_per_flow() {
        const TOL: f64 = 1e-9;
        let mut solver = MaxMin::new(600);
        for_each_max_min_case(|name, routes, caps| {
            let rates = solver.solve(routes.len(), |k| &routes[k], caps);
            let mut load = vec![0.0f64; caps.len()];
            let mut top = vec![0.0f64; caps.len()];
            for (route, &rate) in routes.iter().zip(rates) {
                for l in route {
                    load[l.idx()] += rate;
                    top[l.idx()] = top[l.idx()].max(rate);
                }
            }
            for (l, (&sum, &cap)) in load.iter().zip(caps).enumerate() {
                assert!(sum <= cap * (1.0 + TOL), "{name}: link {l} carries {sum} of {cap}");
            }
            for (k, (route, &rate)) in routes.iter().zip(rates).enumerate() {
                let bottlenecked = route.iter().any(|l| {
                    let i = l.idx();
                    load[i] >= caps[i] * (1.0 - TOL) && rate >= top[i] * (1.0 - TOL)
                });
                assert!(bottlenecked || route.is_empty(), "{name}: flow {k} at {rate} is free");
            }
        });
    }

    /// The event payload must stay small, `Copy`, and `Drop`-free: the
    /// engine's arena stores it inline and recycles slots without any
    /// destructor bookkeeping. CI runs this by name.
    #[test]
    fn packet_payload_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Packet>();
        assert_copy::<RouteRef>();
        assert!(std::mem::size_of::<Packet>() <= 24, "{}", std::mem::size_of::<Packet>());
        assert!(!std::mem::needs_drop::<Packet>());
    }
}
