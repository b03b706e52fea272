//! The internet route server (§2.2).
//!
//! The VHSI abstraction includes "an internet route server" supporting
//! "efficient multicast and routing based on resource requirements"
//! (§2.2). The paper defers routing research to other efforts; this
//! module implements the minimal server those requirements describe: a
//! graph of networks and gateways with per-edge bandwidth and delay,
//! shortest-delay routing filtered by available bandwidth (so a congram
//! is only routed where its resources can be met), and multicast trees
//! as unions of shortest paths.

use std::collections::BinaryHeap;

/// A node in the internet graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node is (affects nothing in routing; kept for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A component network (ATM, FDDI, Ethernet…).
    Network,
    /// A gateway interconnecting networks.
    Gateway,
}

/// Routing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Unknown node id.
    UnknownNode,
    /// No path satisfying the bandwidth requirement exists.
    NoRoute,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    delay_us: u64,
    available_bps: u64,
}

/// The route server.
///
/// ```
/// use gw_mchip::route::{NodeKind, RouteServer};
///
/// let mut rs = RouteServer::new();
/// let lan = rs.add_node(NodeKind::Network);
/// let gw = rs.add_node(NodeKind::Gateway);
/// let wan = rs.add_node(NodeKind::Network);
/// rs.add_edge(lan, gw, 10, 100_000_000);
/// rs.add_edge(gw, wan, 50, 155_000_000);
/// let path = rs.route(lan, wan, 10_000_000).unwrap();
/// assert_eq!(path, vec![lan, gw, wan]);
/// ```
#[derive(Debug, Default)]
pub struct RouteServer {
    kinds: Vec<NodeKind>,
    adj: Vec<Vec<Edge>>,
}

impl RouteServer {
    /// An empty graph.
    pub fn new() -> RouteServer {
        RouteServer::default()
    }

    /// Add a node.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        NodeId(self.kinds.len() - 1)
    }

    /// Add a bidirectional edge with the given delay and available
    /// bandwidth.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, delay_us: u64, available_bps: u64) {
        self.adj[a.0].push(Edge { to: b.0, delay_us, available_bps });
        self.adj[b.0].push(Edge { to: a.0, delay_us, available_bps });
    }

    /// Reduce available bandwidth along a path (both directions), as a
    /// congram is committed to it.
    pub fn commit_path(&mut self, path: &[NodeId], bps: u64) {
        for w in path.windows(2) {
            for (a, b) in [(w[0].0, w[1].0), (w[1].0, w[0].0)] {
                for e in &mut self.adj[a] {
                    if e.to == b {
                        e.available_bps = e.available_bps.saturating_sub(bps);
                    }
                }
            }
        }
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> Option<NodeKind> {
        self.kinds.get(n.0).copied()
    }

    /// Shortest-delay path from `src` to `dst` using only edges with at
    /// least `required_bps` available (§2.2 "routing based on resource
    /// requirements").
    pub fn route(
        &self,
        src: NodeId,
        dst: NodeId,
        required_bps: u64,
    ) -> Result<Vec<NodeId>, RouteError> {
        let n = self.kinds.len();
        if src.0 >= n || dst.0 >= n {
            return Err(RouteError::UnknownNode);
        }
        let mut dist = vec![u64::MAX; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[src.0] = 0;
        heap.push(std::cmp::Reverse((0u64, src.0)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == dst.0 {
                break;
            }
            for e in &self.adj[u] {
                if e.available_bps < required_bps {
                    continue;
                }
                let nd = d + e.delay_us;
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    prev[e.to] = u;
                    heap.push(std::cmp::Reverse((nd, e.to)));
                }
            }
        }
        if dist[dst.0] == u64::MAX {
            return Err(RouteError::NoRoute);
        }
        let mut path = vec![dst];
        let mut cur = dst.0;
        while cur != src.0 {
            cur = prev[cur];
            path.push(NodeId(cur));
        }
        path.reverse();
        Ok(path)
    }

    /// A multicast tree from `src` to every destination: the union of
    /// bandwidth-feasible shortest paths. Returns the tree's directed
    /// edges `(parent, child)`.
    pub fn multicast_tree(
        &self,
        src: NodeId,
        dsts: &[NodeId],
        required_bps: u64,
    ) -> Result<Vec<(NodeId, NodeId)>, RouteError> {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for &d in dsts {
            let path = self.route(src, d, required_bps)?;
            for w in path.windows(2) {
                let e = (w[0], w[1]);
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        }
        Ok(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// src(0) - g1(1) - mid(2) - g2(3) - dst(4), plus a slow bypass
    /// edge src-dst with little bandwidth.
    fn graph() -> (RouteServer, Vec<NodeId>) {
        let mut rs = RouteServer::new();
        let n: Vec<NodeId> = vec![
            rs.add_node(NodeKind::Network),
            rs.add_node(NodeKind::Gateway),
            rs.add_node(NodeKind::Network),
            rs.add_node(NodeKind::Gateway),
            rs.add_node(NodeKind::Network),
        ];
        rs.add_edge(n[0], n[1], 10, 100_000_000);
        rs.add_edge(n[1], n[2], 10, 100_000_000);
        rs.add_edge(n[2], n[3], 10, 100_000_000);
        rs.add_edge(n[3], n[4], 10, 100_000_000);
        rs.add_edge(n[0], n[4], 1000, 1_000_000); // slow, thin bypass
        (rs, n)
    }

    #[test]
    fn shortest_delay_wins() {
        let (rs, n) = graph();
        let path = rs.route(n[0], n[4], 10_000_000).unwrap();
        assert_eq!(path, vec![n[0], n[1], n[2], n[3], n[4]]);
    }

    #[test]
    fn bandwidth_filter_forces_detour() {
        let (rs, n) = graph();
        // Only the thin bypass can't carry 10 Mb/s; a 0.5 Mb/s flow may
        // take whichever is shorter in delay — still the 4-hop path (40
        // < 1000). But if the main path lacks bandwidth, the bypass is
        // chosen:
        let mut rs2 = rs;
        rs2.commit_path(&[n[0], n[1]], 100_000_000); // exhaust first hop
        let path = rs2.route(n[0], n[4], 500_000).unwrap();
        assert_eq!(path, vec![n[0], n[4]], "only the bypass remains feasible");
    }

    #[test]
    fn no_route_when_bandwidth_unavailable() {
        let (rs, n) = graph();
        assert_eq!(rs.route(n[0], n[4], 200_000_000), Err(RouteError::NoRoute));
    }

    #[test]
    fn unknown_node_rejected() {
        let (rs, n) = graph();
        assert_eq!(rs.route(n[0], NodeId(99), 0), Err(RouteError::UnknownNode));
    }

    #[test]
    fn trivial_route_to_self() {
        let (rs, n) = graph();
        assert_eq!(rs.route(n[2], n[2], 0).unwrap(), vec![n[2]]);
    }

    #[test]
    fn commit_reduces_capacity() {
        let (mut rs, n) = graph();
        let path = rs.route(n[0], n[4], 60_000_000).unwrap();
        rs.commit_path(&path, 60_000_000);
        // A second 60 Mb/s congram no longer fits anywhere.
        assert_eq!(rs.route(n[0], n[4], 60_000_000), Err(RouteError::NoRoute));
        // A 30 Mb/s one still does.
        assert!(rs.route(n[0], n[4], 30_000_000).is_ok());
    }

    #[test]
    fn multicast_tree_shares_trunk() {
        let mut rs = RouteServer::new();
        // src - a - b, with leaves c and d off b.
        let src = rs.add_node(NodeKind::Network);
        let a = rs.add_node(NodeKind::Gateway);
        let b = rs.add_node(NodeKind::Gateway);
        let c = rs.add_node(NodeKind::Network);
        let d = rs.add_node(NodeKind::Network);
        rs.add_edge(src, a, 10, 1_000_000);
        rs.add_edge(a, b, 10, 1_000_000);
        rs.add_edge(b, c, 10, 1_000_000);
        rs.add_edge(b, d, 10, 1_000_000);
        let tree = rs.multicast_tree(src, &[c, d], 100_000).unwrap();
        // Trunk edges appear once: src-a, a-b, b-c, b-d = 4 edges, not 6.
        assert_eq!(tree.len(), 4);
        assert!(tree.contains(&(src, a)));
        assert!(tree.contains(&(b, c)));
        assert!(tree.contains(&(b, d)));
    }

    #[test]
    fn multicast_fails_if_any_leaf_unreachable() {
        let (rs, n) = graph();
        let mut rs = rs;
        let island = rs.add_node(NodeKind::Network);
        assert_eq!(rs.multicast_tree(n[0], &[n[4], island], 1_000), Err(RouteError::NoRoute));
    }

    #[test]
    fn node_kinds_recorded() {
        let (rs, n) = graph();
        assert_eq!(rs.kind(n[0]), Some(NodeKind::Network));
        assert_eq!(rs.kind(n[1]), Some(NodeKind::Gateway));
        assert_eq!(rs.kind(NodeId(99)), None);
    }
}
