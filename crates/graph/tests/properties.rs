//! Property-based tests for the CSR graph invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlqvo_graph::{extract_connected_subgraph, Graph, GraphBuilder};

/// Strategy: a random labeled graph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..4, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2 + 1));
        (labels, edges).prop_map(|(labels, edges)| {
            let mut b = GraphBuilder::new(4);
            for l in labels {
                b.add_vertex(l);
            }
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u as u32, v as u32);
                }
            }
            b.build()
        })
    })
}

/// Strategy: a random graph of up to `max_n` vertices in a label universe
/// of 1 to `max_labels` labels, drawn independently of `|V|`: many classes
/// are empty, and a wide universe dwarfs the vertex count.
fn arb_universe_graph(max_n: usize, max_labels: u32) -> impl Strategy<Value = Graph> {
    (0..=max_n, 1..=max_labels).prop_flat_map(|(n, num_labels)| {
        let labels = proptest::collection::vec(0..num_labels, n);
        let edges = proptest::collection::vec((0..n.max(1), 0..n.max(1)), 0..(n * 3 + 1));
        (labels, edges).prop_map(move |(labels, edges)| {
            let mut b = GraphBuilder::new(num_labels);
            for l in labels {
                b.add_vertex(l);
            }
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u as u32, v as u32);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn adjacency_is_sorted_and_symmetric(g in arb_graph(24)) {
        for v in g.vertices() {
            let adj = g.neighbors(v);
            prop_assert!(adj.windows(2).all(|w| w[0] < w[1]));
            for &u in adj {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn degree_sum_is_twice_edges(g in arb_graph(24)) {
        let sum: u64 = g.vertices().map(|v| g.degree(v) as u64).sum();
        prop_assert_eq!(sum, 2 * g.num_edges() as u64);
    }

    /// The CSR label index is the ascending filter of `labels()`, for
    /// every label up to two past the universe, so its classes partition
    /// the vertices.
    #[test]
    fn label_index_partitions_vertices(g in arb_universe_graph(24, 400)) {
        let mut total = 0;
        for l in 0..g.num_labels() + 2 {
            let naive: Vec<u32> = g.vertices().filter(|&v| g.label(v) == l).collect();
            prop_assert_eq!(g.vertices_with_label(l), &naive[..]);
            prop_assert_eq!(g.label_frequency(l), naive.len());
            total += naive.len();
        }
        prop_assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn count_degree_greater_matches_naive(g in arb_graph(24), d in 0u32..8) {
        let naive = g.vertices().filter(|&v| g.degree(v) > d).count();
        prop_assert_eq!(g.count_degree_greater(d), naive);
    }

    #[test]
    fn nlf_sums_to_degree(g in arb_graph(24)) {
        for v in g.vertices() {
            let nlf = g.neighbor_label_frequency(v);
            prop_assert_eq!(nlf.iter().sum::<u32>(), g.degree(v));
        }
    }

    #[test]
    fn neighbor_label_table_is_the_saturated_frequency(g in arb_universe_graph(24, 12)) {
        assert_columns_are_saturated_frequencies(&g);
    }

    #[test]
    fn io_round_trip(g in arb_graph(24)) {
        let mut buf = Vec::new();
        rlqvo_graph::io::write_graph(&g, &mut buf).unwrap();
        let g2 = rlqvo_graph::io::read_graph(std::io::Cursor::new(buf), Some(g.num_labels())).unwrap();
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.labels(), g.labels());
        for v in g.vertices() {
            prop_assert_eq!(g2.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn sampled_subgraph_is_connected_induced(seed in 0u64..1000) {
        // Fixed well-connected host graph; randomness in the walk.
        let mut b = GraphBuilder::new(3);
        for i in 0..25u32 {
            b.add_vertex(i % 3);
        }
        for r in 0..5u32 {
            for c in 0..5u32 {
                let v = r * 5 + c;
                if c + 1 < 5 { b.add_edge(v, v + 1); }
                if r + 1 < 5 { b.add_edge(v, v + 5); }
            }
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, backing) = extract_connected_subgraph(&g, 8, &mut rng).unwrap();
        prop_assert!(q.is_connected());
        // Induced: edge iff edge in host.
        for i in 0..8u32 {
            for j in (i + 1)..8u32 {
                prop_assert_eq!(
                    q.has_edge(i, j),
                    g.has_edge(backing[i as usize], backing[j as usize])
                );
            }
        }
    }
}

/// Where the table is built, every column is as long as its class and
/// holds, at each class vertex's position,
/// `min(255, neighbor_label_frequency(v)[l2])`; empty classes and labels
/// outside the universe give empty columns, a neighbour label outside it
/// gives none. Where it is not built, no column is served.
fn assert_columns_are_saturated_frequencies(g: &Graph) {
    let labels = g.num_labels();
    let built = g.neighbor_label_column(0, 0).is_some();
    for l in 0..labels + 2 {
        let class = g.vertices_with_label(l);
        for l2 in 0..labels {
            let Some(column) = g.neighbor_label_column(l, l2) else {
                assert!(!built, "column ({l}, {l2}) missing from a built table");
                continue;
            };
            assert!(built, "column ({l}, {l2}) served without a table");
            assert_eq!(column.len(), class.len(), "column ({l}, {l2})");
            for (&v, &count) in class.iter().zip(column) {
                assert_eq!(count as u32, g.neighbor_label_frequency(v)[l2 as usize].min(255), "vertex {v}, label {l2}");
            }
        }
        assert_eq!(g.neighbor_label_column(l, labels), None, "neighbour label outside the universe");
    }
}

/// One hub with 300 neighbours of label 1 and 7 of label 2: the first count
/// saturates at 255, everything else is exact, label 3 is an empty class,
/// and clones carry the table.
#[test]
fn neighbor_label_table_saturates_at_255() {
    let mut b = GraphBuilder::new(4);
    let hub = b.add_vertex(0);
    for i in 0..307u32 {
        let leaf = b.add_vertex(if i < 300 { 1 } else { 2 });
        b.add_edge(hub, leaf);
    }
    let g = b.build();
    assert_eq!(g.neighbor_label_frequency(hub), vec![0, 300, 7, 0]);
    assert!(g.neighbor_label_column(0, 0).is_some(), "table is built");
    assert_columns_are_saturated_frequencies(&g);
    let copy = g.clone();
    let hub_counts: Vec<_> = (0..4).map(|l2| copy.neighbor_label_column(0, l2)).collect();
    assert_eq!(hub_counts, [Some(&[0u8][..]), Some(&[255][..]), Some(&[7][..]), Some(&[0][..])]);
    assert_eq!(copy.neighbor_label_column(2, 0), Some(&[1u8; 7][..]));
    assert_eq!(copy.neighbor_label_column(3, 0), Some(&[][..]), "an unused label is an empty class");
}

/// `|V|·|L|` bytes over twice the CSR size: no table, for any class; one
/// label fewer and it is built.
#[test]
fn neighbor_label_table_is_skipped_for_wide_label_universes() {
    let path = |num_labels: u32| {
        let mut b = GraphBuilder::new(num_labels);
        for _ in 0..10 {
            b.add_vertex(0);
        }
        for v in 0..9u32 {
            b.add_edge(v, v + 1);
        }
        b.build()
    };
    let limit = (2 * path(1).storage_bytes() / 10) as u32;
    let narrow = path(limit);
    assert!(narrow.neighbor_label_column(0, 0).is_some(), "table is built");
    assert_columns_are_saturated_frequencies(&narrow);
    let wide = path(limit + 1);
    assert!((0..=limit).all(|l| (0..=limit).all(|l2| wide.neighbor_label_column(l, l2).is_none())));
    assert_eq!(wide.neighbor_label_frequency(1)[0], 2, "the counting path is unaffected");
}
