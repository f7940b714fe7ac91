//! Mesh interconnect timing model.
//!
//! The paper's CMP interconnects 16 cores "in a mesh topology via 64-byte
//! links and adaptive routing" with a 2-cycle wire latency and 1-cycle route
//! latency per hop (Table III). We model:
//!
//! * deterministic dimension-ordered (XY) minimal routing — adaptive routing
//!   in an un-congested mesh follows a minimal path, so latency is the same;
//! * per-hop latency `wire + route`;
//! * an optional per-link occupancy model: each directed link remembers when
//!   it is next free; a message arriving earlier queues, which adds
//!   deterministic contention delay.
//!
//! Endpoints are mesh nodes, named by their row-major position. Cores occupy
//! nodes `0..n_cores`; the shared L2 is banked by address across all nodes;
//! memory controllers sit at the mesh corners (4 in the paper).
//!
//! Dimensions come from [`MachineConfig::mesh_dims`]: square by default
//! (the paper's 4x4 at 16 cores), an explicit `rows x cols` rectangle when
//! configured. All hop, link-id and occupancy math is in terms of
//! `rows`/`cols` — nothing assumes the mesh is square, and nothing assumes
//! 16 nodes.

#![forbid(unsafe_code)]

use suv_types::{Cycle, MachineConfig};

/// A node position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    pub x: usize,
    pub y: usize,
}

/// Outgoing-link directions from a node, in dense-id order.
const DIR_EAST: usize = 0;
const DIR_WEST: usize = 1;
const DIR_SOUTH: usize = 2;
const DIR_NORTH: usize = 3;
const DIRS: usize = 4;

/// Mesh interconnect.
///
/// With contention modelling off (the default) a message's latency is
/// arithmetic on the two positions: [`Mesh::relay`] and everything built on
/// it change nothing but the `messages` counter, and the `now` they are
/// given is ignored. With it on, the same calls walk the path hop by hop and
/// reserve its links. Placement and distance queries are pure either way.
///
/// Per-link occupancy lives in a flat `Vec<Cycle>` indexed by a dense link
/// id (`node * 4 + direction`) rather than a hash map keyed by endpoint
/// pairs: the contended-routing loop is the hottest interconnect path, and
/// an index into a pre-sized vector is both faster and trivially
/// deterministic.
#[derive(Debug, Clone)]
pub struct Mesh {
    rows: usize,
    cols: usize,
    wire: Cycle,
    route: Cycle,
    model_contention: bool,
    /// The node at each of the `rows * cols` positions, row-major: cores and
    /// L2 banks are placed by position, up to six lookups per fill.
    nodes: Vec<Node>,
    /// Per-link time at which the link becomes free, indexed by
    /// [`Mesh::link_id`].
    busy_until: Vec<Cycle>,
    /// Total queuing cycles accumulated (stats).
    contention_cycles: Cycle,
    /// Messages routed (stats). Zero-hop self-routes (core and bank on the
    /// same node) cross no link and are not counted.
    messages: u64,
}

impl Mesh {
    /// Build the mesh from the machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let (rows, cols) = cfg.mesh_dims();
        Mesh {
            rows,
            cols,
            wire: cfg.noc_wire_latency,
            route: cfg.noc_route_latency,
            model_contention: cfg.noc_contention,
            nodes: (0..rows * cols).map(|p| Node { x: p % cols, y: p / cols }).collect(),
            busy_until: vec![0; rows * cols * DIRS],
            contention_cycles: 0,
            messages: 0,
        }
    }

    /// Dense id of the directed link leaving `from` toward the adjacent
    /// node `to`.
    fn link_id(&self, from: Node, to: Node) -> usize {
        debug_assert_eq!(from.x.abs_diff(to.x) + from.y.abs_diff(to.y), 1, "not adjacent");
        let dir = if to.x > from.x {
            DIR_EAST
        } else if to.x < from.x {
            DIR_WEST
        } else if to.y > from.y {
            DIR_SOUTH
        } else {
            DIR_NORTH
        };
        (from.y * self.cols + from.x) * DIRS + dir
    }

    /// Mesh rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mesh columns (the row-major placement stride).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Node at position `c`, where core `c` sits (row-major placement).
    pub fn core_node(&self, c: usize) -> Node {
        self.nodes[c]
    }

    /// Position of the L2 bank holding line `line_addr`: banks are
    /// interleaved across all mesh nodes by line address.
    #[inline]
    pub fn bank_of(&self, line_addr: u64) -> usize {
        let (b, banks) = ((line_addr >> 6) as usize, self.nodes.len());
        if banks.is_power_of_two() {
            b & (banks - 1)
        } else {
            b % banks
        }
    }

    /// Position of the memory controller serving `bank` (placed at corners,
    /// then along the top edge if more than 4 banks are configured).
    pub fn mem_ctrl(&self, bank: usize) -> usize {
        let (right, bottom) = (self.cols - 1, (self.rows - 1) * self.cols);
        [0, right, bottom, bottom + right][bank % 4]
    }

    /// Manhattan hop count between nodes.
    pub fn hops(&self, a: Node, b: Node) -> usize {
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// Un-contended latency of a message from `a` to `b`.
    pub fn base_latency(&self, a: Node, b: Node) -> Cycle {
        self.hops(a, b) as Cycle * (self.wire + self.route)
    }

    /// Latency of a message relayed along `path` (positions), each leg
    /// leaving at `now` plus the legs before it; every coherence round trip
    /// is one of these. A zero-hop leg (a core whose L2 bank shares its
    /// node) crosses no link: it is free, reserves nothing, and is not
    /// counted as a message. The contention switch is tested once per
    /// path; without contention the legs are sums over the position table.
    #[inline]
    pub fn relay<const N: usize>(&mut self, now: Cycle, path: [usize; N]) -> Cycle {
        if self.model_contention {
            return self.walk(now, &path);
        }
        let mut hops = 0;
        for leg in path.windows(2) {
            let h = self.hops(self.nodes[leg[0]], self.nodes[leg[1]]);
            hops += h;
            self.messages += u64::from(h != 0);
        }
        hops as Cycle * (self.wire + self.route)
    }

    /// [`Self::relay`] between two nodes.
    pub fn route(&mut self, now: Cycle, a: Node, b: Node) -> Cycle {
        self.relay(now, [a.y * self.cols + a.x, b.y * self.cols + b.x])
    }

    /// The contended relay: XY routing, X first, then Y, each link reserved
    /// for the wire time of the flit and queued for while busy.
    #[inline(never)]
    fn walk(&mut self, now: Cycle, path: &[usize]) -> Cycle {
        let mut t = now;
        for leg in path.windows(2) {
            let (mut cur, b) = (self.nodes[leg[0]], self.nodes[leg[1]]);
            self.messages += u64::from(cur != b);
            while cur != b {
                let next = if cur.x == b.x {
                    Node { x: cur.x, y: if b.y > cur.y { cur.y + 1 } else { cur.y - 1 } }
                } else {
                    Node { x: if b.x > cur.x { cur.x + 1 } else { cur.x - 1 }, y: cur.y }
                };
                let link = self.link_id(cur, next);
                let free = self.busy_until[link];
                if free > t {
                    self.contention_cycles += free - t;
                    t = free;
                }
                self.busy_until[link] = t + self.wire;
                t += self.wire + self.route;
                cur = next;
            }
        }
        t - now
    }

    /// **One-way** latency of a message from a core to the L2 bank of a
    /// line (request leg only); a full coherence transaction charges every
    /// further leg as further positions of a [`Mesh::relay`] path.
    pub fn core_to_bank(&mut self, now: Cycle, core: usize, line_addr: u64) -> Cycle {
        self.relay(now, [core, self.bank_of(line_addr)])
    }

    /// Total queuing delay accumulated so far.
    pub fn contention_cycles(&self) -> Cycle {
        self.contention_cycles
    }

    /// Messages routed so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_types::MachineConfig;

    fn mesh() -> Mesh {
        Mesh::new(&MachineConfig::default())
    }

    /// An explicit (non-square unless rows == cols) rows x cols mesh.
    fn rect_mesh(rows: usize, cols: usize) -> Mesh {
        let mut cfg = MachineConfig::default();
        cfg.n_cores = rows * cols;
        cfg.mesh_rows = rows;
        cfg.mesh_cols = cols;
        Mesh::new(&cfg)
    }

    #[test]
    fn sixteen_cores_form_4x4() {
        let m = mesh();
        assert_eq!((m.rows(), m.cols()), (4, 4));
        assert_eq!(m.core_node(0), Node { x: 0, y: 0 });
        assert_eq!(m.core_node(5), Node { x: 1, y: 1 });
        assert_eq!(m.core_node(15), Node { x: 3, y: 3 });
    }

    #[test]
    fn large_core_counts_get_square_meshes() {
        let mut cfg = MachineConfig::default();
        cfg.n_cores = 128;
        let m = Mesh::new(&cfg);
        assert_eq!((m.rows(), m.cols()), (12, 12));
        assert_eq!(m.core_node(127), Node { x: 127 % 12, y: 127 / 12 });
        cfg.n_cores = 256;
        let m = Mesh::new(&cfg);
        assert_eq!((m.rows(), m.cols()), (16, 16));
    }

    #[test]
    fn rectangular_placement_uses_cols_stride() {
        let m = rect_mesh(2, 8);
        assert_eq!(m.core_node(0), Node { x: 0, y: 0 });
        assert_eq!(m.core_node(7), Node { x: 7, y: 0 });
        assert_eq!(m.core_node(8), Node { x: 0, y: 1 });
        assert_eq!(m.core_node(15), Node { x: 7, y: 1 });
        // Corners of a 2x8 mesh.
        assert_eq!(m.core_node(m.mem_ctrl(0)), Node { x: 0, y: 0 });
        assert_eq!(m.core_node(m.mem_ctrl(1)), Node { x: 7, y: 0 });
        assert_eq!(m.core_node(m.mem_ctrl(2)), Node { x: 0, y: 1 });
        assert_eq!(m.core_node(m.mem_ctrl(3)), Node { x: 7, y: 1 });
        // Opposite corners: (8-1) + (2-1) = 8 hops.
        let lat = m.base_latency(Node { x: 0, y: 0 }, Node { x: 7, y: 1 });
        assert_eq!(lat, 8 * 3);
    }

    #[test]
    fn hop_latency_matches_table3() {
        let m = mesh();
        // Opposite corners of a 4x4 mesh: 6 hops, 3 cycles each.
        let lat = m.base_latency(Node { x: 0, y: 0 }, Node { x: 3, y: 3 });
        assert_eq!(lat, 6 * 3);
        // Self-messages are free.
        assert_eq!(m.base_latency(Node { x: 1, y: 2 }, Node { x: 1, y: 2 }), 0);
    }

    #[test]
    fn banks_cover_all_nodes() {
        let m = mesh();
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            seen.insert(m.core_node(m.bank_of(i * 64)));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn banks_cover_all_nodes_rectangular() {
        let m = rect_mesh(3, 5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..15u64 {
            let n = m.core_node(m.bank_of(i * 64));
            assert!(n.x < 5 && n.y < 3, "bank node {n:?} off the 3x5 mesh");
            seen.insert(n);
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn node_table_is_the_row_major_arithmetic() {
        // 16 banks take the mask, 15 and 144 the remainder.
        for m in [mesh(), rect_mesh(3, 5), rect_mesh(12, 12)] {
            let (banks, cols) = (m.rows() * m.cols(), m.cols());
            for c in 0..banks {
                assert_eq!(m.core_node(c), Node { x: c % cols, y: c / cols });
            }
            for i in (0..1000u64).chain([u64::MAX >> 6]) {
                let b = i as usize % banks;
                assert_eq!(m.core_node(m.bank_of(i * 64 + 63)), Node { x: b % cols, y: b / cols });
            }
        }
    }

    #[test]
    fn memory_controllers_at_corners() {
        let m = mesh();
        assert_eq!(m.core_node(m.mem_ctrl(0)), Node { x: 0, y: 0 });
        assert_eq!(m.core_node(m.mem_ctrl(1)), Node { x: 3, y: 0 });
        assert_eq!(m.core_node(m.mem_ctrl(2)), Node { x: 0, y: 3 });
        assert_eq!(m.core_node(m.mem_ctrl(3)), Node { x: 3, y: 3 });
    }

    #[test]
    fn contention_adds_queuing_delay() {
        let cfg = MachineConfig { noc_contention: true, ..Default::default() };
        let mut m = Mesh::new(&cfg);
        let a = Node { x: 0, y: 0 };
        let b = Node { x: 1, y: 0 };
        let l1 = m.route(0, a, b);
        // Second message over the same link at the same instant queues
        // behind the first flit.
        let l2 = m.route(0, a, b);
        assert_eq!(l1, 3);
        assert!(l2 > l1, "expected queuing delay, got {l2}");
        assert!(m.contention_cycles() > 0);
        assert_eq!(m.messages(), 2);
    }

    #[test]
    fn zero_hop_self_route_is_free_and_uncounted() {
        // Regression: a core whose L2 bank sits on the same mesh node used
        // to be counted as a routed message (and consulted the contention
        // model), inflating message counts and per-message contention
        // averages.
        let cfg = MachineConfig { noc_contention: true, ..Default::default() };
        let mut m = Mesh::new(&cfg);
        let n = Node { x: 2, y: 1 };
        for _ in 0..5 {
            assert_eq!(m.route(0, n, n), 0);
        }
        assert_eq!(m.messages(), 0, "self-routes must not count as messages");
        assert_eq!(m.contention_cycles(), 0);
        // A real message afterwards is unaffected.
        assert_eq!(m.route(0, n, Node { x: 3, y: 1 }), 3);
        assert_eq!(m.messages(), 1);
    }

    #[test]
    fn zero_hop_self_route_is_free_and_uncounted_rectangular() {
        // The PR 3 invariant must survive the parameterized mesh: in a
        // 2x8 rectangle, core 9 sits at (1,1) and line 9 banks to (1,1) —
        // a self-route that must stay free and uncounted even though
        // node index 9 would be off-grid in the old 4x4-implied math.
        let mut cfg = MachineConfig::default();
        cfg.n_cores = 16;
        cfg.mesh_rows = 2;
        cfg.mesh_cols = 8;
        cfg.noc_contention = true;
        let mut m = Mesh::new(&cfg);
        let line = 9u64 * 64;
        assert_eq!(m.core_node(m.bank_of(line)), m.core_node(9));
        for _ in 0..5 {
            assert_eq!(m.core_to_bank(0, 9, line), 0);
        }
        assert_eq!(m.messages(), 0, "self-routes must not count as messages");
        assert_eq!(m.contention_cycles(), 0);
        // A genuine one-hop message afterwards pays exactly one hop.
        assert_eq!(m.route(0, m.core_node(9), m.core_node(10)), 3);
        assert_eq!(m.messages(), 1);
    }

    #[test]
    fn core_to_bank_same_node_is_free() {
        let mut m = mesh();
        // Core 5 sits at (1,1) = node 5; bank of line with (addr>>6)%16 == 5.
        let line = 5u64 * 64;
        assert_eq!(m.core_node(m.bank_of(line)), m.core_node(5));
        assert_eq!(m.core_to_bank(0, 5, line), 0);
        assert_eq!(m.messages(), 0);
    }

    #[test]
    fn link_ids_are_dense_and_distinct() {
        let m = mesh();
        let mut seen = std::collections::HashSet::new();
        for y in 0..4 {
            for x in 0..4 {
                let n = Node { x, y };
                for d in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                    let nx = x as i64 + d.0;
                    let ny = y as i64 + d.1;
                    if (0..4).contains(&nx) && (0..4).contains(&ny) {
                        let to = Node { x: nx as usize, y: ny as usize };
                        let id = m.link_id(n, to);
                        assert!(id < 4 * 4 * 4, "id {id} out of range");
                        assert!(seen.insert(id), "duplicate link id {id}");
                    }
                }
            }
        }
        // 2 * 2 * side * (side-1) directed links in a side x side mesh.
        assert_eq!(seen.len(), 2 * 2 * 4 * 3);
    }

    #[test]
    fn link_ids_are_dense_and_distinct_rectangular() {
        let (rows, cols) = (3usize, 5usize);
        let m = rect_mesh(rows, cols);
        let mut seen = std::collections::HashSet::new();
        for y in 0..rows {
            for x in 0..cols {
                let n = Node { x, y };
                for d in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                    let nx = x as i64 + d.0;
                    let ny = y as i64 + d.1;
                    if (0..cols as i64).contains(&nx) && (0..rows as i64).contains(&ny) {
                        let to = Node { x: nx as usize, y: ny as usize };
                        let id = m.link_id(n, to);
                        assert!(id < rows * cols * 4, "id {id} out of range");
                        assert!(seen.insert(id), "duplicate link id {id}");
                    }
                }
            }
        }
        // 2 directions x (horizontal rows*(cols-1) + vertical cols*(rows-1)).
        assert_eq!(seen.len(), 2 * (rows * (cols - 1) + cols * (rows - 1)));
    }

    #[test]
    fn relay_is_the_walk_of_an_idle_contended_mesh() {
        // Every pair of a power-of-two, an odd rectangular and a 144-node
        // mesh: the arithmetic leg equals `route()` walking idle links.
        for (rows, cols) in [(4, 4), (3, 5), (12, 12)] {
            let mut fast = rect_mesh(rows, cols);
            let mut cfg = MachineConfig::default();
            (cfg.n_cores, cfg.mesh_rows, cfg.mesh_cols) = (rows * cols, rows, cols);
            cfg.noc_contention = true;
            let mut walked = Mesh::new(&cfg);
            for a in 0..rows * cols {
                for b in 0..rows * cols {
                    // Far enough apart that every link has drained.
                    let now = ((a * rows * cols + b) * 1000) as Cycle;
                    let want = walked.route(now, walked.core_node(a), walked.core_node(b));
                    assert_eq!(fast.relay(0, [a, b]), want, "{rows}x{cols}: {a} -> {b}");
                }
            }
            assert_eq!(fast.messages(), walked.messages());
            assert_eq!(walked.contention_cycles(), 0);
        }
    }

    #[test]
    fn no_contention_is_pure_distance() {
        let mut m = mesh();
        let a = Node { x: 0, y: 0 };
        let b = Node { x: 2, y: 1 };
        for _ in 0..10 {
            assert_eq!(m.route(0, a, b), 9);
        }
        assert_eq!(m.contention_cycles(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_types::MachineConfig;

    proptest! {
        /// Latency is symmetric and proportional to Manhattan distance.
        #[test]
        fn latency_symmetric(ax in 0usize..4, ay in 0usize..4, bx in 0usize..4, by in 0usize..4) {
            let m = Mesh::new(&MachineConfig::default());
            let a = Node { x: ax, y: ay };
            let b = Node { x: bx, y: by };
            prop_assert_eq!(m.base_latency(a, b), m.base_latency(b, a));
            prop_assert_eq!(m.base_latency(a, b), (m.hops(a, b) as u64) * 3);
        }

        /// Contended routing never reports less than the base latency, and
        /// reduces to the base latency when messages are spread far apart
        /// in time.
        #[test]
        fn contention_lower_bound(msgs in proptest::collection::vec((0usize..16, 0usize..16), 1..50)) {
            let cfg = MachineConfig { noc_contention: true, ..Default::default() };
            let mut m = Mesh::new(&cfg);
            let mut now = 0u64;
            for (c1, c2) in msgs {
                let a = m.core_node(c1);
                let b = m.core_node(c2);
                let base = m.base_latency(a, b);
                let lat = m.route(now, a, b);
                prop_assert!(lat >= base);
                // Far enough apart that every link has drained.
                now += 1000;
                let lat2 = m.route(now, a, b);
                prop_assert_eq!(lat2, base);
                now += 1000;
            }
        }

        /// `relay` counts a message per leg that crosses a link and none
        /// for a zero-hop leg, exactly as leg-by-leg `route` calls on an
        /// idle contended mesh do, and a path's latency is the sum of its
        /// legs'.
        #[test]
        fn relay_counts_messages_as_route_does(
            paths in proptest::collection::vec((0usize..15, 0usize..15, 0usize..15, 0usize..3), 1..60),
        ) {
            let mut cfg = MachineConfig { n_cores: 15, mesh_rows: 3, mesh_cols: 5, ..Default::default() };
            let mut relayed = Mesh::new(&cfg);
            cfg.noc_contention = true;
            let mut routed = Mesh::new(&cfg);
            let mut now = 0;
            for (a, b, c, shape) in paths {
                // Round trips through one's own node, repeated nodes, one leg.
                let path = [[a, b, c, a], [a, a, b, b], [a, b, b, b]][shape];
                let mut legs = 0;
                for l in path.windows(2) {
                    now += 1000; // every link has drained
                    legs += routed.route(now, routed.core_node(l[0]), routed.core_node(l[1]));
                }
                prop_assert_eq!(relayed.relay(0, path), legs);
                prop_assert_eq!(relayed.messages(), routed.messages());
            }
            prop_assert_eq!(routed.contention_cycles(), 0);
        }

        /// Rectangular meshes obey the same laws: symmetric base latency,
        /// contended >= base, and a fully drained network is pure distance.
        #[test]
        fn rect_contention_lower_bound(
            rows in 1usize..5,
            cols in 1usize..9,
            msgs in proptest::collection::vec((0usize..32, 0usize..32), 1..30),
        ) {
            let mut cfg = MachineConfig::default();
            cfg.n_cores = rows * cols;
            cfg.mesh_rows = rows;
            cfg.mesh_cols = cols;
            cfg.noc_contention = true;
            let mut m = Mesh::new(&cfg);
            let mut now = 0u64;
            for (c1, c2) in msgs {
                let a = m.core_node(c1 % (rows * cols));
                let b = m.core_node(c2 % (rows * cols));
                prop_assert_eq!(m.base_latency(a, b), m.base_latency(b, a));
                let base = m.base_latency(a, b);
                let lat = m.route(now, a, b);
                prop_assert!(lat >= base);
                now += 1000;
                let lat2 = m.route(now, a, b);
                prop_assert_eq!(lat2, base);
                now += 1000;
            }
        }
    }
}
