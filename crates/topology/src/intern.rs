//! View-interning arenas for the multi-round pipeline (DESIGN.md §6).
//!
//! Iterating the interpretation of Def 4.14 nests views: after round `t`
//! a process's view is a set of `(sender, round-(t−1) view)` pairs. A
//! naive representation re-materializes those trees — each facet of the
//! round-`t` complex would drag along `O(n^t)` vertices of history. This
//! module hash-conses instead: each round's **distinct** views go into a
//! [`ViewTable`] where a view is identified by a dense `u32` id, and a
//! nested view is stored as a sorted list of `(sender, id)` pairs whose
//! ids point into the *previous* round's table ([`InternedView`]). The
//! round-`t` protocol complex is then a plain `Complex<u32>` — vertices
//! carry ids, not trees — and the chain of tables resolves any id back
//! to its full history on demand.
//!
//! Determinism (DESIGN.md §4): ids are **canonical**, not first-come —
//! [`ViewTable::canonical`] sorts the distinct entries and assigns ids by
//! sorted position, so a table is a function of its entry *set*, not of
//! the order the entries were enumerated in. The multi-round pipeline of
//! [`crate::rounds`] never searches a table: it encodes every view
//! occurrence as a flat `u32` row that sorts exactly as the
//! [`InternedView`] it stands for, numbers the rows with the chain
//! engine's packed-key kernel, and decodes only the distinct rows — in
//! canonical order — into the round's table. An empty view encodes as
//! the all-zero row, which sorts first, as the empty list does.

use std::fmt;

/// A view interned at some round `t ≥ 1`: the sorted, deduplicated list
/// of `(sender, id)` pairs, where each id points into round `t − 1`'s
/// [`ViewTable`] (for `t = 1`, into the table of input views).
///
/// The empty list is a valid view: a process whose heard-from set misses
/// every vertex of a partial simplex knows nothing.
pub type InternedView = Vec<(usize, u32)>;

/// One round's hash-consed view table: the distinct views of that round,
/// sorted, with the `u32` id of a view being its position.
///
/// Generic over the entry type so the same arena serves the input layer
/// (`ViewTable<V>` over raw input views) and every later round
/// (`ViewTable<InternedView>` over nested views).
///
/// # Examples
///
/// ```
/// use ksa_topology::intern::ViewTable;
///
/// let table = ViewTable::canonical(vec![30u32, 10, 20, 10]);
/// assert_eq!(table.len(), 3);
/// assert_eq!(table.id_of(&20), Some(1)); // sorted position
/// assert_eq!(*table.get(2), 30);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewTable<T> {
    /// Distinct entries in sorted order; the id of an entry is its index.
    entries: Vec<T>,
}

impl<T: Ord> ViewTable<T> {
    /// Builds the canonical table from candidate entries: duplicates
    /// collapse, entries sort, ids are sorted positions. The result is a
    /// pure function of the candidate *set* — independent of the
    /// enumeration order that produced it.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` distinct entries (far
    /// beyond any budget the multi-round pipeline admits).
    pub fn canonical<I: IntoIterator<Item = T>>(candidates: I) -> Self {
        let mut entries: Vec<T> = candidates.into_iter().collect();
        entries.sort_unstable();
        entries.dedup();
        assert!(
            u32::try_from(entries.len()).is_ok(),
            "view table exceeds u32 ids"
        );
        ViewTable { entries }
    }

    /// The id of an entry, if interned.
    pub fn id_of(&self, entry: &T) -> Option<u32> {
        self.entries.binary_search(entry).ok().map(|i| i as u32)
    }

    /// Resolves an id back to its entry.
    ///
    /// # Panics
    ///
    /// Panics on an id from a different table (out of range).
    pub fn get(&self, id: u32) -> &T {
        &self.entries[id as usize]
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in id order.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }
}

impl<T: Ord> FromIterator<T> for ViewTable<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        ViewTable::canonical(iter)
    }
}

impl<T: fmt::Debug> fmt::Display for ViewTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ViewTable[{} views]", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sorts_and_dedups() {
        let t = ViewTable::canonical(vec![5u8, 1, 5, 3, 1]);
        assert_eq!(t.entries(), &[1, 3, 5]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn ids_are_sorted_positions() {
        let t = ViewTable::canonical(vec!["b", "a", "c"]);
        assert_eq!(t.id_of(&"a"), Some(0));
        assert_eq!(t.id_of(&"b"), Some(1));
        assert_eq!(t.id_of(&"c"), Some(2));
        assert_eq!(t.id_of(&"z"), None);
        assert_eq!(*t.get(1), "b");
    }

    #[test]
    fn order_independent() {
        // Canonicity: any order of the same candidate multiset gives
        // the same table.
        let a = ViewTable::canonical(vec![3u32, 1, 2]);
        let b = ViewTable::canonical(vec![2u32, 2, 3, 1, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn interned_views_table() {
        let v1: InternedView = vec![(0, 0), (1, 2)];
        let v2: InternedView = vec![(0, 1)];
        let empty: InternedView = Vec::new();
        let t = ViewTable::canonical(vec![v1.clone(), v2.clone(), empty.clone(), v1.clone()]);
        assert_eq!(t.len(), 3);
        // The empty view sorts first.
        assert_eq!(t.id_of(&empty), Some(0));
        assert_eq!(t.get(t.id_of(&v1).unwrap()), &v1);
        assert_eq!(t.get(t.id_of(&v2).unwrap()), &v2);
    }

    #[test]
    fn empty_table() {
        let t: ViewTable<u32> = ViewTable::canonical(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.id_of(&0), None);
    }

    #[test]
    fn from_iterator_and_display() {
        let t: ViewTable<u8> = [2u8, 1].into_iter().collect();
        assert_eq!(t.entries(), &[1, 2]);
        assert_eq!(t.to_string(), "ViewTable[2 views]");
    }
}
