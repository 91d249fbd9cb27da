//! The immutable CSR graph.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Dense vertex identifier. Kept at 32 bits: the largest paper dataset
/// (Youtube) has 1.1 M vertices, and halving index width keeps adjacency
/// arrays cache-resident (see the perf-book "Smaller Integers" guidance).
pub type VertexId = u32;

/// An immutable, vertex-labeled, undirected graph in CSR form.
///
/// Invariants (checked by the builder and by debug assertions):
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, monotone non-decreasing;
/// * each adjacency slice `neighbors[offsets[v]..offsets[v+1]]` is strictly
///   sorted (no self-loops, no parallel edges);
/// * the edge relation is symmetric: `u ∈ N(v) ⇔ v ∈ N(u)`.
///
/// A graph holds:
/// * the adjacency CSR, `offsets` (`|V| + 1`) and `neighbors` (`2|E|`);
/// * `labels` (`|V|`);
/// * the label index, itself a CSR allocated at its exact size:
///   `label_vertices` (`|V|`, the vertices of each label class ascending,
///   classes in label order) and `label_offsets` (`|L| + 1`). A query
///   graph lives in its data graph's label universe, so this is the one
///   structure whose size follows `|L|` rather than `|V|`: 4 bytes per
///   label, with no allocation per label;
/// * `sorted_degrees` (`|V|`) and `max_degree`.
///
/// One derived structure is built on first use: the neighbour-label table
/// behind [`Graph::neighbor_label_column`], so a graph that is never
/// asked (query graphs, induced training subgraphs, LDF-only runs) never
/// pays for it. [`Graph::storage_bytes`] counts the adjacency CSR and the
/// labels only.
///
/// The table is laid out for its one reader, the NLF filter, which asks
/// the same question — "at least `need` neighbours labeled `l2`?" — of
/// every vertex of one label class in turn: class-major (the vertices of
/// `vertices_with_label(l)`, in that order, are stored together) and
/// column-major within a class (one contiguous byte per class vertex for
/// each neighbour label), so the question is a sequential pass over
/// `|class|` bytes instead of one row fetch per vertex.
#[derive(Clone, Debug)]
pub struct Graph {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
    labels: Vec<u32>,
    /// Number of distinct labels in the label universe (may exceed the
    /// number of labels actually present, e.g. shared between `q` and `G`).
    num_labels: u32,
    /// `label_vertices[label_offsets[l]..label_offsets[l + 1]]` = sorted
    /// vertices carrying label `l`.
    label_vertices: Vec<VertexId>,
    label_offsets: Vec<u32>,
    /// Vertex degrees sorted ascending — supports O(log n) "how many data
    /// vertices have degree > d" queries (feature h⁽⁰⁾(4) of the paper).
    sorted_degrees: Vec<u32>,
    max_degree: u32,
    /// The `|V|·|L|` saturating neighbour-label counts, or `None` inside
    /// the cell when the size rule of [`Graph::neighbor_label_column`]
    /// says not to build them.
    /// Class-major and column-major: the column of class `l` and
    /// neighbour label `l2` is the `|class|` bytes at
    /// `|L| · label_offsets[l] + l2 · |class|`.
    nlf_table: OnceLock<Option<Box<[u8]>>>,
}

impl Graph {
    /// Assembles a graph from raw CSR parts. Intended for
    /// [`crate::GraphBuilder`]; validates invariants in debug builds.
    pub(crate) fn from_csr(offsets: Vec<u32>, neighbors: Vec<VertexId>, labels: Vec<u32>, num_labels: u32) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, neighbors.len());
        let n = labels.len();
        // Counting sort by label: class sizes, their prefix sums, then one
        // ascending pass that places each vertex at its class's cursor.
        let mut label_offsets = vec![0u32; num_labels as usize + 1];
        for &l in &labels {
            label_offsets[l as usize + 1] += 1;
        }
        for l in 0..num_labels as usize {
            label_offsets[l + 1] += label_offsets[l];
        }
        let mut cursor = label_offsets[..num_labels as usize].to_vec();
        let mut label_vertices = vec![0 as VertexId; n];
        for (v, &l) in labels.iter().enumerate() {
            label_vertices[cursor[l as usize] as usize] = v as VertexId;
            cursor[l as usize] += 1;
        }
        let mut sorted_degrees: Vec<u32> = (0..n).map(|v| offsets[v + 1] - offsets[v]).collect();
        sorted_degrees.sort_unstable();
        let max_degree = sorted_degrees.last().copied().unwrap_or(0);
        let nlf_table = OnceLock::new();
        let g = Graph {
            offsets,
            neighbors,
            labels,
            num_labels,
            label_vertices,
            label_offsets,
            sorted_degrees,
            max_degree,
            nlf_table,
        };
        debug_assert!(g.check_invariants());
        g
    }

    fn check_invariants(&self) -> bool {
        for v in 0..self.num_vertices() {
            let adj = self.neighbors(v as VertexId);
            if !adj.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            if adj.binary_search(&(v as VertexId)).is_ok() {
                return false; // self loop
            }
            for &u in adj {
                if self.neighbors(u).binary_search(&(v as VertexId)).is_err() {
                    return false; // asymmetric
                }
            }
        }
        true
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Size of the label universe `|L|` this graph was built against.
    #[inline]
    pub fn num_labels(&self) -> u32 {
        self.num_labels
    }

    /// Degree `d(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted adjacency list `N(v)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Label `f_l(v)`.
    #[inline]
    pub fn label(&self, v: VertexId) -> u32 {
        self.labels[v as usize]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// O(log d) edge test via binary search on the sorted adjacency list.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Sorted vertices carrying label `l` (empty slice for unused labels).
    #[inline]
    pub fn vertices_with_label(&self, l: u32) -> &[VertexId] {
        match self.label_offsets.get(l as usize..l as usize + 2) {
            Some(&[start, end]) => &self.label_vertices[start as usize..end as usize],
            _ => &[],
        }
    }

    /// `|{v ∈ V : f_l(v) = l}|` — the label frequency used by VF2++-style
    /// orderings and by RL-QVO's feature h⁽⁰⁾(5).
    #[inline]
    pub fn label_frequency(&self, l: u32) -> usize {
        self.vertices_with_label(l).len()
    }

    /// `|{v ∈ V : d(v) > d}|` — the degree-frequency statistic behind
    /// RL-QVO's feature h⁽⁰⁾(4). O(log n) via the sorted degree array.
    pub fn count_degree_greater(&self, d: u32) -> usize {
        // partition_point gives the count of degrees <= d.
        let le = self.sorted_degrees.partition_point(|&x| x <= d);
        self.sorted_degrees.len() - le
    }

    /// Maximum degree in the graph.
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Average degree `2|E|/|V|` (the `d` column of paper Table II).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v)))
    }

    /// Frequency of each unordered label pair over the edges of this graph.
    /// This is the edge weight used by QuickSI's infrequent-edge-first
    /// ordering (weights of query edges = frequency of their label pair in
    /// the data graph).
    pub fn edge_label_pair_frequencies(&self) -> HashMap<(u32, u32), u64> {
        let mut freq: HashMap<(u32, u32), u64> = HashMap::new();
        for (u, v) in self.edges() {
            let (a, b) = {
                let (la, lb) = (self.label(u), self.label(v));
                if la <= lb {
                    (la, lb)
                } else {
                    (lb, la)
                }
            };
            *freq.entry((a, b)).or_insert(0) += 1;
        }
        freq
    }

    /// Neighbour-label frequency of `v`: for each label `l`, how many
    /// neighbours of `v` carry `l`. Dense vector of length `num_labels` —
    /// query/data graphs in this workspace keep label universes small
    /// (≤ 71 in the paper's datasets).
    pub fn neighbor_label_frequency(&self, v: VertexId) -> Vec<u32> {
        let mut nlf = vec![0u32; self.num_labels as usize];
        for &u in self.neighbors(v) {
            nlf[self.label(u) as usize] += 1;
        }
        nlf
    }

    /// One column of the neighbour-label table: byte `i` is
    /// `min(255, neighbor_label_frequency(v)[l2])` for
    /// `v = vertices_with_label(l)[i]`, so `column[i] >= need` answers
    /// "does `v` have at least `need` neighbours labeled `l2`" exactly for
    /// every `need <= 254`; a saturated 255 only says "at least 255". The
    /// column is as long as the class (empty for an empty class or a label
    /// `l` outside the universe). The table depends on the graph alone —
    /// NLF filtering used to re-count the same data vertices' neighbour
    /// labels for every query vertex of every query — and is built once,
    /// by the first call, in one pass over the adjacency array.
    ///
    /// It costs `|V|·|L|` bytes. When that exceeds twice
    /// [`Graph::storage_bytes`] (a label universe much wider than the
    /// average degree) no table is built and every call returns `None`,
    /// as does a neighbour label `l2` outside the universe; callers then
    /// count `N(v)` themselves.
    pub fn neighbor_label_column(&self, l: u32, l2: u32) -> Option<&[u8]> {
        let table = self.nlf_table.get_or_init(|| self.build_nlf_table()).as_ref()?;
        if l2 >= self.num_labels {
            return None;
        }
        // A label `l` outside the universe is an empty class like any other.
        let class = self.vertices_with_label(l).len();
        let before = self.label_offsets.get(l as usize).map_or(0, |&o| o as usize);
        let start = before * self.num_labels as usize + l2 as usize * class;
        Some(&table[start..start + class])
    }

    fn build_nlf_table(&self) -> Option<Box<[u8]>> {
        let labels = self.num_labels as usize;
        let bytes = self.num_vertices().checked_mul(labels)?;
        if bytes > 2 * self.storage_bytes() {
            return None;
        }
        let mut counts = vec![0u8; bytes].into_boxed_slice();
        let mut offset = 0usize;
        for l in 0..self.num_labels {
            let class = self.vertices_with_label(l);
            let columns = &mut counts[offset..offset + class.len() * labels];
            for (i, &v) in class.iter().enumerate() {
                for &w in self.neighbors(v) {
                    let count = &mut columns[self.label(w) as usize * class.len() + i];
                    *count = count.saturating_add(1);
                }
            }
            offset += columns.len();
        }
        Some(counts)
    }

    /// True if the graph is connected (trivially true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as VertexId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Bytes of the adjacency CSR and the labels (paper Table IV "Graph
    /// Space"). Excludes the label index (`4(|V| + |L| + 1)` bytes), the
    /// sorted degrees (`4|V|`) and the lazily built neighbour-label table
    /// ([`Graph::neighbor_label_column`]), which adds `|V|·|L|` bytes once
    /// a filter has asked for it. The table's size rule compares against
    /// this value.
    pub fn storage_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.neighbors.len() * 4 + self.labels.len() * 4
    }

    /// The induced subgraph on `verts` (which need not be sorted). Vertex
    /// `verts[i]` becomes vertex `i` of the result; labels are preserved and
    /// the label universe is inherited so query/data label ids stay aligned.
    ///
    /// Returns the subgraph together with the mapping `new id -> old id`.
    pub fn induced_subgraph(&self, verts: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut builder = crate::GraphBuilder::new(self.num_labels);
        // Dense old→new lookup: this sits on the training-episode path
        // (subquery sampling), where hashing every neighbour probe showed
        // up; a flat array costs one |V| fill and O(1) per probe.
        const UNMAPPED: VertexId = VertexId::MAX;
        let mut old_to_new = vec![UNMAPPED; self.num_vertices()];
        for (new, &old) in verts.iter().enumerate() {
            old_to_new[old as usize] = new as VertexId;
            builder.add_vertex(self.label(old));
            debug_assert_eq!(builder.num_vertices() - 1, new);
        }
        for (new, &old) in verts.iter().enumerate() {
            for &nb in self.neighbors(old) {
                let nb_new = old_to_new[nb as usize];
                if nb_new != UNMAPPED && (new as VertexId) < nb_new {
                    builder.add_edge(new as VertexId, nb_new);
                }
            }
        }
        (builder.build(), verts.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn path3() -> super::Graph {
        // 0(l0) - 1(l1) - 2(l0)
        let mut b = GraphBuilder::new(2);
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(0);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.label(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn label_index_and_frequencies() {
        let g = path3();
        assert_eq!(g.vertices_with_label(0), &[0, 2]);
        assert_eq!(g.vertices_with_label(1), &[1]);
        assert_eq!(g.label_frequency(0), 2);
        assert_eq!(g.label_frequency(7), 0);
    }

    /// An 8-vertex query in a 10 000-label universe: the label index is two
    /// allocations of exactly `|V|` and `|L| + 1` entries, with nothing
    /// allocated per label.
    #[test]
    fn label_index_is_sized_by_vertices_plus_universe() {
        let mut b = GraphBuilder::new(10_000);
        for v in 0..8u32 {
            b.add_vertex(v * 1_237 % 10_000);
        }
        for v in 0..7u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        assert_eq!((g.label_vertices.len(), g.label_vertices.capacity()), (8, 8));
        assert_eq!((g.label_offsets.len(), g.label_offsets.capacity()), (10_001, 10_001));
        assert_eq!(g.sorted_degrees.capacity(), 8);
        for v in g.vertices() {
            assert_eq!(g.vertices_with_label(g.label(v)), &[v]);
        }
        assert_eq!(g.label_frequency(1), 0);
        assert_eq!(g.vertices_with_label(10_000), &[] as &[u32], "past the universe");
    }

    #[test]
    fn degree_greater_counts() {
        let g = path3(); // degrees: 1, 2, 1
        assert_eq!(g.count_degree_greater(0), 3);
        assert_eq!(g.count_degree_greater(1), 1);
        assert_eq!(g.count_degree_greater(2), 0);
    }

    #[test]
    fn edge_iteration_is_unique() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn edge_label_pair_frequencies() {
        let g = path3();
        let f = g.edge_label_pair_frequencies();
        assert_eq!(f.get(&(0, 1)), Some(&2));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nlf_vector() {
        let g = path3();
        assert_eq!(g.neighbor_label_frequency(1), vec![2, 0]);
        assert_eq!(g.neighbor_label_frequency(0), vec![0, 1]);
    }

    #[test]
    fn connectivity() {
        let g = path3();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        b.add_vertex(0);
        assert!(!b.build().is_connected());
    }

    #[test]
    fn induced_subgraph_keeps_labels_and_edges() {
        let g = path3();
        let (sub, map) = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.label(0), 1);
        assert_eq!(sub.label(1), 0);
        assert_eq!(map, vec![1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.is_connected());
    }
}
