//! Strongly typed identifiers for graph elements.
//!
//! Nodes are dense `u32` indices into the graph's internal vectors; labels
//! are interned `u32` ids managed by [`LabelInterner`]. Keeping both at 32
//! bits halves the memory footprint of adjacency lists compared to `usize`
//! on 64-bit hosts, which matters for the multi-million-edge graphs the
//! paper targets.

use std::fmt;

/// Identifier of a node in a [`crate::LabeledGraph`].
///
/// Node ids are dense: a graph with `n` nodes uses exactly the ids
/// `0..n`. This invariant is relied upon throughout the workspace (bit sets,
/// partition vectors, rank vectors are all indexed by `NodeId`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize`, suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32` (graphs are limited to
    /// `u32::MAX` nodes).
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "node index overflows u32");
        NodeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// Interned node label.
///
/// The paper's label function `L : V → Σ` maps nodes to labels drawn from a
/// finite alphabet; we intern the alphabet so label comparisons (the hot
/// operation inside bisimulation refinement and simulation) are integer
/// comparisons.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl Label {
    /// Returns the label id as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Label {
    fn from(v: u32) -> Self {
        Label(v)
    }
}

/// Bidirectional mapping between human-readable label names and interned
/// [`Label`] ids.
#[derive(Clone, Debug, Default)]
pub struct LabelInterner {
    names: Vec<String>,
    by_name: std::collections::HashMap<String, Label>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its label id. Idempotent.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&l) = self.by_name.get(name) {
            return l;
        }
        let l = Label(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), l);
        l
    }

    /// Looks up a label by name without interning it.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of an interned label, if it exists.
    pub fn name(&self, label: Label) -> Option<&str> {
        self.names.get(label.index()).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(format!("{n:?}"), "n42");
        assert_eq!(format!("{n}"), "42");
    }

    #[test]
    fn label_roundtrip() {
        let l = Label(7);
        assert_eq!(l.index(), 7);
        assert_eq!(Label::from(7u32), l);
        assert_eq!(format!("{l:?}"), "L7");
    }

    #[test]
    fn interner_is_idempotent() {
        let mut i = LabelInterner::new();
        let a = i.intern("BSA");
        let b = i.intern("MSA");
        let a2 = i.intern("BSA");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.name(a), Some("BSA"));
        assert_eq!(i.name(b), Some("MSA"));
        assert_eq!(i.get("MSA"), Some(b));
        assert_eq!(i.get("FA"), None);
        assert_eq!(i.name(Label(2)), None);
    }

    #[test]
    fn interner_empty() {
        let i = LabelInterner::new();
        assert_eq!(i.get("A"), None);
        assert_eq!(i.name(Label(0)), None);
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }
}
