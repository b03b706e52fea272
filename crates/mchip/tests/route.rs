//! The internet route server's public capabilities (§2.2: "efficient
//! multicast and routing based on resource requirements"): a congram's
//! bandwidth is committed along its path, and a later multicast tree is
//! built only over what remains.

use gw_mchip::route::{NodeKind, RouteError, RouteServer};

#[test]
fn multicast_tree_routes_around_committed_bandwidth() {
    let mut rs = RouteServer::new();
    // src - a - {c, d}, and a slower second trunk src - b - {c, d}.
    let src = rs.add_node(NodeKind::Network);
    let a = rs.add_node(NodeKind::Gateway);
    let b = rs.add_node(NodeKind::Gateway);
    let c = rs.add_node(NodeKind::Network);
    let d = rs.add_node(NodeKind::Network);
    for (x, y) in [(src, a), (a, c), (a, d)] {
        rs.add_edge(x, y, 10, 100_000_000);
    }
    for (x, y) in [(src, b), (b, c), (b, d)] {
        rs.add_edge(x, y, 50, 100_000_000);
    }
    // With every edge free, both leaves hang off the fast trunk.
    let tree = rs.multicast_tree(src, &[c, d], 60_000_000).unwrap();
    assert_eq!(tree, vec![(src, a), (a, c), (a, d)]);

    // A unicast congram takes 60 Mb/s of the fast trunk's first hop; the
    // next 60 Mb/s tree must use the slow trunk, sharing it to both leaves.
    rs.commit_path(&[src, a], 60_000_000);
    let tree = rs.multicast_tree(src, &[c, d], 60_000_000).unwrap();
    assert_eq!(tree, vec![(src, b), (b, c), (b, d)]);

    // With both trunks committed, a third such tree has no route.
    rs.commit_path(&[src, b], 60_000_000);
    assert_eq!(rs.multicast_tree(src, &[c, d], 60_000_000), Err(RouteError::NoRoute));
    // A smaller one still fits the fast trunk's remainder.
    assert!(rs.multicast_tree(src, &[c], 30_000_000).is_ok());
}
