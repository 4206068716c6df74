//! A disjoint-set forest (union–find) with union by rank and path compression.
//!
//! Record matching produces pairwise "these two records are duplicates"
//! decisions; the transitive closure of those decisions is the clustering the
//! consolidation pipeline consumes. Union–find computes that closure in
//! near-linear time.

/// A disjoint-set forest over `0..len` elements.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// The representative of `x`'s set, with path compression.
    ///
    /// # Panics
    /// Panics when `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` when they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Materializes the sets as a vector of element-index groups. Groups are
    /// ordered by their smallest member and each group is sorted, so the
    /// output is deterministic regardless of union order.
    ///
    /// One ascending scan does it: a root gets the next slot the first time
    /// one of its members is seen, so slots open in smallest-member order and
    /// members land in each group already sorted.
    pub fn into_groups(mut self) -> Vec<Vec<usize>> {
        const UNSEEN: usize = usize::MAX;
        let mut slot = vec![UNSEEN; self.len()];
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(self.components);
        for x in 0..self.len() {
            let root = self.find(x);
            if slot[root] == UNSEEN {
                slot[root] = groups.len();
                groups.push(Vec::new());
            }
            groups[slot[root]].push(x);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hash-and-sort grouping [`UnionFind::into_groups`] replaced, kept
    /// as the reference of the property test below.
    fn into_groups_reference(mut uf: UnionFind) -> Vec<Vec<usize>> {
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..uf.len() {
            let root = uf.find(x);
            by_root.entry(root).or_default().push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }

    #[test]
    fn singletons_start_disconnected() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        assert!(!uf.connected(0, 1));
        assert!(uf.connected(2, 2));
    }

    #[test]
    fn union_merges_and_is_idempotent() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 2));
        assert_eq!(uf.num_components(), 3);
    }

    #[test]
    fn groups_are_deterministic_and_complete() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(1, 2);
        uf.union(3, 1);
        let groups = uf.into_groups();
        assert_eq!(groups, vec![vec![0], vec![1, 2, 3, 5], vec![4]]);
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_components(), 0);
        assert!(uf.into_groups().is_empty());
    }

    proptest! {
        /// Transitivity: after an arbitrary sequence of unions, connectivity is
        /// an equivalence relation and the groups partition the elements.
        #[test]
        fn prop_groups_partition_elements(
            n in 1usize..40,
            edges in proptest::collection::vec((0usize..40, 0usize..40), 0..60)
        ) {
            let mut uf = UnionFind::new(n);
            for (a, b) in edges {
                uf.union(a % n, b % n);
            }
            let components = uf.num_components();
            let groups = uf.clone().into_groups();
            prop_assert_eq!(groups.len(), components);
            let mut seen = vec![false; n];
            for g in &groups {
                for &x in g {
                    prop_assert!(!seen[x], "element {} appears twice", x);
                    seen[x] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
            // Every pair inside a group is connected; the group leaders are not.
            for g in &groups {
                for w in g.windows(2) {
                    prop_assert!(uf.connected(w[0], w[1]));
                }
            }
            for pair in groups.windows(2) {
                prop_assert!(!uf.connected(pair[0][0], pair[1][0]));
            }
        }

        /// The one-scan grouping equals the hash-and-sort reference for any
        /// union sequence.
        #[test]
        fn prop_groups_match_the_reference(
            n in 0usize..60,
            edges in proptest::collection::vec((0usize..60, 0usize..60), 0..80)
        ) {
            let mut uf = UnionFind::new(n);
            if n > 0 {
                for (a, b) in edges {
                    uf.union(a % n, b % n);
                }
            }
            prop_assert_eq!(uf.clone().into_groups(), into_groups_reference(uf));
        }
    }
}
