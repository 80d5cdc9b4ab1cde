use std::fmt;
use std::path::Path;
use std::sync::Arc;

use crate::store::{FileId, GraphStore, MappedGraph, StoreError, StoreSummary};
use crate::{NodeId, Region};

/// Finite undirected knowledge graph `G = (Π, E)` (paper §2.2).
///
/// An edge `(p, q)` means `p` and `q` know each other: each is in the
/// other's *border* (neighbourhood). The graph is immutable once built;
/// crashes do **not** remove nodes — liveness is tracked by the runtime,
/// while `G` stays queryable ("using some underlying topology service for
/// crashed nodes", §2.2).
///
/// Nodes are the dense range `NodeId(0)..NodeId(n)`. Adjacency is stored
/// in **CSR form**: one flat sorted `NodeId` array plus an `n + 1` offset
/// array, so the whole graph costs O(|Π| + |E|) memory and a build is one
/// counting sort — no per-node allocations and, crucially, no O(n²)-bit
/// structure anywhere (the previous dense neighbor-mask table was ~134 MB
/// at n = 32768 and ≥125 GB at n = 10⁶).
///
/// The set kernels read nothing but these rows: a border sorts the
/// members' gathered neighbours ([`border_of`](Graph::border_of)), and
/// a component search marks members by their position in a sorted slice
/// ([`connected_components`](crate::connected_components)), so a query
/// costs O(|S|·deg·log) whatever `n` or the magnitude of the ids.
///
/// The CSR arrays live either on the heap (built by [`GraphBuilder`])
/// or in a memory-mapped `.pcsr` file ([`Graph::open_pcsr`]); the two
/// storages expose identical slices, so every kernel is bit-identical
/// across them and callers never need to care which one they hold.
///
/// # Example
///
/// ```
/// use precipice_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Clone)]
pub struct Graph {
    /// Where the CSR arrays live: owned heap vectors or a mapped `.pcsr`
    /// file. Every kernel reads them through the slice accessors
    /// ([`offsets`](Graph::offsets_slice) / [`csr_slice`](Graph::csr_slice)),
    /// so results are bit-identical across storage.
    adjacency: Adjacency,
    labels: Option<Vec<String>>,
    edge_count: usize,
}

/// Backing storage for the CSR arrays.
///
/// `Arc`-shared either way: the topology is immutable after construction,
/// and sweeps clone graphs per job — a clone must cost O(1), not a deep
/// copy (and certainly not a re-`mmap`).
#[derive(Clone, Debug)]
enum Adjacency {
    /// Heap vectors built by [`GraphBuilder`] / [`Graph::from_sorted_rows`].
    Owned {
        /// CSR offsets: the neighbours of `p` are
        /// `csr[offsets[p] as usize .. offsets[p + 1] as usize]`, sorted.
        offsets: Arc<Vec<u32>>,
        /// Flat CSR adjacency array (each undirected edge appears twice).
        csr: Arc<Vec<NodeId>>,
    },
    /// A read-only mapping of a `.pcsr` file ([`Graph::open_pcsr`]); the
    /// same sections, zero-copy.
    Mapped(Arc<MappedGraph>),
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // Comparing by slice makes an owned graph equal to its mapped
        // round trip.
        self.offsets_slice() == other.offsets_slice()
            && self.csr_slice() == other.csr_slice()
            && self.labels == other.labels
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges and self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Opens a `.pcsr` topology file as a zero-copy mapped graph.
    ///
    /// The file's CSR sections are served in place — opening is O(1)
    /// regardless of graph size, and every kernel produces bit-identical
    /// results to the owned build it was written from. Labels are not
    /// persisted by the format, so the mapped graph is unlabeled.
    /// Validation is structural; call [`MappedGraph::verify`] separately
    /// for the O(file) checksum and row walk.
    pub fn open_pcsr(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mapped = MappedGraph::open(path)?;
        Ok(Graph {
            edge_count: mapped.edge_count(),
            adjacency: Adjacency::Mapped(Arc::new(mapped)),
            labels: None,
        })
    }

    /// Writes this graph's adjacency to `path` as a `.pcsr` file
    /// (labels, if any, are not persisted).
    pub fn write_pcsr(&self, path: impl AsRef<Path>) -> Result<StoreSummary, StoreError> {
        GraphStore::write(self, path)
    }

    /// `true` if the adjacency is served from a mapped `.pcsr` file
    /// rather than owned heap vectors.
    pub fn is_mapped(&self) -> bool {
        matches!(self.adjacency, Adjacency::Mapped(_))
    }

    /// The identity of the mapped `.pcsr` file
    /// ([`MappedGraph::file_id`]), or `None` for owned adjacency.
    pub fn file_id(&self) -> Option<FileId> {
        match &self.adjacency {
            Adjacency::Mapped(m) => Some(m.file_id()),
            Adjacency::Owned { .. } => None,
        }
    }

    /// Gives a mapped graph's resident pages back to the kernel while
    /// keeping the mapping: the next read of a row refaults it from the
    /// page cache, unchanged. For a graph kept open while nothing reads
    /// it. A no-op for owned adjacency.
    pub fn release_pages(&self) -> std::io::Result<()> {
        match &self.adjacency {
            Adjacency::Mapped(m) => m.release_pages(),
            Adjacency::Owned { .. } => Ok(()),
        }
    }

    /// Builds a graph directly from already-sorted adjacency rows.
    ///
    /// `row(p, out)` must append the neighbors of `p` (cleared by the
    /// caller first) sorted ascending, deduplicated, self-loop-free, and
    /// symmetric — the contract closed-form generators satisfy by
    /// construction. One pass, no edge list, no counting-sort scatter:
    /// peak memory is the final CSR plus the row buffer.
    pub(crate) fn from_sorted_rows<F>(n: usize, mut row: F) -> Self
    where
        F: FnMut(usize, &mut Vec<NodeId>),
    {
        let mut offsets = vec![0u32; n + 1];
        let mut csr: Vec<NodeId> = Vec::new();
        let mut buf: Vec<NodeId> = Vec::new();
        for p in 0..n {
            buf.clear();
            row(p, &mut buf);
            debug_assert!(
                buf.windows(2).all(|w| w[0] < w[1])
                    && buf.iter().all(|q| q.index() < n && q.index() != p),
                "row of node {p} violates the sorted-rows contract"
            );
            assert!(
                csr.len() + buf.len() <= u32::MAX as usize,
                "adjacency too large for u32 CSR offsets"
            );
            csr.extend_from_slice(&buf);
            offsets[p + 1] = csr.len() as u32;
        }
        let edge_count = csr.len() / 2;
        Graph {
            adjacency: Adjacency::Owned {
                offsets: Arc::new(offsets),
                csr: Arc::new(csr),
            },
            labels: None,
            edge_count,
        }
    }

    /// The CSR offset array (`n + 1` entries), from either storage.
    #[inline]
    fn offsets_slice(&self) -> &[u32] {
        match &self.adjacency {
            Adjacency::Owned { offsets, .. } => offsets,
            Adjacency::Mapped(m) => m.offsets(),
        }
    }

    /// The flat CSR adjacency array (`2·E` entries), from either storage.
    #[inline]
    fn csr_slice(&self) -> &[NodeId] {
        match &self.adjacency {
            Adjacency::Owned { csr, .. } => csr,
            Adjacency::Mapped(m) => m.csr(),
        }
    }

    /// Number of nodes `|Π|`.
    pub fn len(&self) -> usize {
        self.offsets_slice().len() - 1
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` if `id` names a node of this graph.
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.len()
    }

    /// The sorted neighbours of `p` — the paper's `border(p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a node of this graph.
    #[inline]
    pub fn neighbors(&self, p: NodeId) -> &[NodeId] {
        assert!(self.contains(p), "no such node {p}");
        let offsets = self.offsets_slice();
        &self.csr_slice()[offsets[p.index()] as usize..offsets[p.index() + 1] as usize]
    }

    /// [`neighbors`](Self::neighbors) for a caller that must not panic:
    /// `None` if `p` is not a node or its CSR row breaks
    /// `offsets[p] ≤ offsets[p + 1] ≤ csr.len()`. Built and verified
    /// graphs never have such a row; a mapped `.pcsr` whose checksum was
    /// not verified at load (serve's `open` stays O(1)) can.
    pub fn checked_neighbors(&self, p: NodeId) -> Option<&[NodeId]> {
        let offsets = self.offsets_slice();
        let (start, end) = (*offsets.get(p.index())?, *offsets.get(p.index() + 1)?);
        self.csr_slice().get(start as usize..end as usize)
    }

    /// Total heap bytes of the adjacency representation (CSR offsets +
    /// flat array + labels). O(|Π| + |E|) by
    /// construction; the accounting exists so tests can pin the scaling.
    ///
    /// A mapped graph owns no adjacency heap at all — its sections live
    /// in the page cache, shared between every process mapping the same
    /// file — so only the label bytes (always `None` today) count.
    pub fn memory_bytes(&self) -> usize {
        let adjacency = match &self.adjacency {
            Adjacency::Owned { offsets, csr } => {
                offsets.len() * std::mem::size_of::<u32>()
                    + csr.len() * std::mem::size_of::<NodeId>()
            }
            Adjacency::Mapped(_) => 0,
        };
        adjacency
            + self
                .labels
                .as_ref()
                .map_or(0, |ls| ls.iter().map(String::len).sum())
    }

    /// Degree of `p` (`|border(p)|`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a node of this graph.
    #[inline]
    pub fn degree(&self, p: NodeId) -> usize {
        assert!(self.contains(p), "no such node {p}");
        let offsets = self.offsets_slice();
        (offsets[p.index() + 1] - offsets[p.index()]) as usize
    }

    /// `true` if `p` and `q` are adjacent.
    pub fn has_edge(&self, p: NodeId, q: NodeId) -> bool {
        if !self.contains(p) || !self.contains(q) {
            return false;
        }
        self.neighbors(p).binary_search(&q).is_ok()
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_index)
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The border of a node *set* `S` (paper §2.2):
    /// `border(S) = { q ∈ Π \ S | ∃ p ∈ S : (p,q) ∈ E }`, sorted.
    ///
    /// The input need not be sorted or duplicate-free.
    ///
    /// # Example
    ///
    /// ```
    /// use precipice_graph::{Graph, NodeId};
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
    /// let border = g.border_of([NodeId(1), NodeId(2)]);
    /// assert_eq!(border, vec![NodeId(0), NodeId(3)]);
    /// ```
    pub fn border_of<I>(&self, set: I) -> Vec<NodeId>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut members: Vec<NodeId> = set.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        self.border_of_sorted(&members)
    }

    /// [`border_kernel`] over this graph's CSR rows, gathered into one
    /// buffer sized by the members' degrees.
    fn border_of_sorted(&self, members: &[NodeId]) -> Vec<NodeId> {
        let gathered = members.iter().map(|&p| self.degree(p)).sum();
        border_kernel(members, gathered, |p, out| {
            out.extend_from_slice(self.neighbors(p));
        })
    }

    /// The border of a [`Region`] as a [`Region`]: the one border kernel
    /// over the region's sorted members. Only the `benchmark/` package's
    /// probes call it; it goes once they time [`border_of`](Self::border_of).
    pub fn border_of_region_cached(&self, region: &Region) -> Region {
        Region::from_sorted_vec(self.border_of_sorted(region.as_slice()))
    }

    /// `true` if `border` is the border of `region`: each border member
    /// lies outside the region and next to a member, and each neighbour
    /// of a member lies in the region or the border. Only binary searches
    /// over sorted rows, so it allocates nothing.
    pub fn is_border_of(&self, region: &Region, border: &Region) -> bool {
        let (members, border) = (region.as_slice(), border.as_slice());
        let member = |q: &NodeId| members.binary_search(q).is_ok();
        border
            .iter()
            .all(|&q| !member(&q) && self.neighbors(q).iter().any(member))
            && members.iter().all(|&p| {
                self.neighbors(p)
                    .iter()
                    .all(|q| member(q) || border.binary_search(q).is_ok())
            })
    }

    /// Optional human-readable label of `p` (used by named topologies such
    /// as the Figure-1 cities network).
    pub fn label(&self, p: NodeId) -> Option<&str> {
        self.labels
            .as_ref()
            .and_then(|ls| ls.get(p.index()))
            .map(String::as_str)
    }

    /// Label of `p`, falling back to its `Display` form.
    pub fn display_name(&self, p: NodeId) -> String {
        self.label(p).map_or_else(|| p.to_string(), str::to_owned)
    }

    /// Looks a node up by its label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        let labels = self.labels.as_ref()?;
        labels
            .iter()
            .position(|l| l == label)
            .map(NodeId::from_index)
    }

    /// `true` if the whole graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        // Every node is a member, at the position of its own id.
        let mut seen = vec![false; self.len()];
        let mut reached = Vec::with_capacity(self.len());
        crate::components::search(
            self,
            NodeId(0),
            |q| Some(q.index()),
            &mut seen,
            &mut reached,
        );
        reached.len() == self.len()
    }
}

/// `border(S)` of a sorted, duplicate-free member slice `S`: every
/// member's neighbours, appended by `gather` to a buffer of `capacity`,
/// sorted and deduplicated, minus the members, dropped in one merge
/// pass. The one border computation of the crate; it costs
/// O(|S|·deg·log(|S|·deg)) whatever `n` or the magnitude of the ids.
pub(crate) fn border_kernel(
    members: &[NodeId],
    capacity: usize,
    mut gather: impl FnMut(NodeId, &mut Vec<NodeId>),
) -> Vec<NodeId> {
    let mut border = Vec::with_capacity(capacity);
    for &p in members {
        gather(p, &mut border);
    }
    border.sort_unstable();
    border.dedup();
    let mut members = members.iter().peekable();
    border.retain(|q| {
        while members.next_if(|&p| p < q).is_some() {}
        members.next_if_eq(&q).is_none()
    });
    border
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.len())
            .field("edges", &self.edge_count)
            .field("labeled", &self.labels.is_some())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// Accumulates a plain edge list and materializes the CSR arrays in one
/// counting-sort pass at [`build`](GraphBuilder::build) — O(|E| log Δ)
/// time, O(|E|) transient memory, no per-node containers (a
/// million-node torus builds in a fraction of a second).
///
/// # Example
///
/// ```
/// use precipice_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(NodeId(0), NodeId(1));
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    labels: Option<Vec<String>>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` unlabeled nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            labels: None,
        }
    }

    /// Starts a builder whose nodes carry the given labels (one node per
    /// label, in order).
    pub fn with_labels<S: Into<String>, I: IntoIterator<Item = S>>(labels: I) -> Self {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        GraphBuilder {
            n: labels.len(),
            edges: Vec::new(),
            labels: Some(labels),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the builder holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `(u, v)`. Self-loops and duplicates are
    /// silently ignored (duplicates are collapsed at build time).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u.index() < self.n, "edge endpoint {u} out of range");
        assert!(v.index() < self.n, "edge endpoint {v} out of range");
        if u != v {
            self.edges.push((u, v));
        }
        self
    }

    /// Adds the edge between two labeled nodes.
    ///
    /// # Panics
    ///
    /// Panics if either label is unknown or the builder is unlabeled.
    pub fn add_edge_by_label(&mut self, u: &str, v: &str) -> &mut Self {
        let labels = self.labels.as_ref().expect("builder has no labels");
        let find = |name: &str| {
            labels
                .iter()
                .position(|l| l == name)
                .map(NodeId::from_index)
                .unwrap_or_else(|| panic!("unknown node label {name:?}"))
        };
        let (u, v) = (find(u), find(v));
        self.add_edge(u, v)
    }

    /// Finalizes the graph: counting-sorts the edge list into CSR form,
    /// sorting and deduplicating each adjacency row.
    pub fn build(self) -> Graph {
        let n = self.n;
        assert!(
            self.edges.len() <= (u32::MAX as usize) / 2,
            "edge list too large for u32 CSR offsets"
        );

        // Counting sort by source endpoint (each edge contributes both
        // directions), then sort + dedup each row while compacting.
        let mut counts = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            counts[u.index() + 1] += 1;
            counts[v.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let total = counts[n] as usize;
        let mut scatter: Vec<NodeId> = vec![NodeId(0); total];
        let mut cursor = counts.clone();
        for &(u, v) in &self.edges {
            scatter[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            scatter[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        drop(cursor);

        let mut offsets = vec![0u32; n + 1];
        let mut csr: Vec<NodeId> = Vec::with_capacity(total);
        for p in 0..n {
            let row = &mut scatter[counts[p] as usize..counts[p + 1] as usize];
            row.sort_unstable();
            let start = csr.len();
            for &q in row.iter() {
                if csr.len() == start || *csr.last().expect("non-empty") != q {
                    csr.push(q);
                }
            }
            offsets[p + 1] = csr.len() as u32;
        }
        drop(scatter);
        csr.shrink_to_fit();
        let edge_count = csr.len() / 2;

        Graph {
            adjacency: Adjacency::Owned {
                offsets: Arc::new(offsets),
                csr: Arc::new(csr),
            },
            labels: self.labels,
            edge_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = Graph::from_edges(5, [(3, 1), (1, 0), (3, 0), (4, 3)]);
        assert_eq!(g.neighbors(NodeId(3)), &[NodeId(0), NodeId(1), NodeId(4)]);
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let g = Graph::from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn memory_is_edge_proportional() {
        // A 4-regular torus-like edge set: memory must scale with E, not
        // n²/8 the way the old dense mask table did.
        let n = 65_536usize;
        let side = 256;
        let mut b = GraphBuilder::new(n);
        for y in 0..side {
            for x in 0..side {
                let id = |x: usize, y: usize| NodeId::from_index(y * side + x);
                b.add_edge(id(x, y), id((x + 1) % side, y));
                b.add_edge(id(x, y), id(x, (y + 1) % side));
            }
        }
        let g = b.build();
        assert_eq!(g.edge_count(), 2 * n);
        // CSR: (n+1)*4 offset bytes + 4E*4 adjacency bytes ≈ 1.3 MB. The
        // old mask table alone was n²/8 = 512 MB here.
        assert!(
            g.memory_bytes() < 10 << 20,
            "adjacency should be well under 10 MB, got {}",
            g.memory_bytes()
        );
    }

    #[test]
    fn border_of_set_excludes_members() {
        let g = path4();
        assert_eq!(
            g.border_of([NodeId(1), NodeId(2)]),
            vec![NodeId(0), NodeId(3)]
        );
        assert_eq!(g.border_of([NodeId(0)]), vec![NodeId(1)]);
        // Whole graph has an empty border.
        assert!(g.border_of(g.nodes()).is_empty());
        // Empty set has an empty border.
        assert!(g.border_of([]).is_empty());
    }

    #[test]
    fn border_of_duplicated_input() {
        let g = path4();
        assert_eq!(
            g.border_of([NodeId(1), NodeId(1)]),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn labels_round_trip() {
        let mut b = GraphBuilder::with_labels(["paris", "london"]);
        b.add_edge_by_label("paris", "london");
        let g = b.build();
        assert_eq!(g.node_by_label("london"), Some(NodeId(1)));
        assert_eq!(g.label(NodeId(0)), Some("paris"));
        assert_eq!(g.display_name(NodeId(0)), "paris");
        assert_eq!(g.node_by_label("tokyo"), None);
    }

    #[test]
    fn unlabeled_display_name_falls_back() {
        let g = path4();
        assert_eq!(g.display_name(NodeId(2)), "n2");
        assert_eq!(g.label(NodeId(2)), None);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn connectivity_check() {
        assert!(path4().is_connected());
        assert!(!Graph::from_edges(4, [(0, 1), (2, 3)]).is_connected());
        assert!(Graph::from_edges(0, []).is_connected());
        assert!(!Graph::from_edges(2, []).is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "no such node")]
    fn border_of_out_of_range_member_panics() {
        let _ = path4().border_of([NodeId(9)]);
    }
}
