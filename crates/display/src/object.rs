//! Display objects: instances of display classes.

use displaydb_common::{Oid, TxnId};
use displaydb_schema::Value;
use displaydb_viz::{NodeId, Rect};

/// Identifier of a display object within a display cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DoId(pub u64);

impl std::fmt::Display for DoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "do:{}", self.0)
    }
}

/// One display object: the GUI-side materialization of one or more
/// database objects (paper § 3.1).
#[derive(Clone, Debug)]
pub struct DisplayObject {
    /// Identity within the display cache.
    pub id: DoId,
    /// The display class that derived it.
    pub class: String,
    /// The OID list of associated database objects (footnote 1 of the
    /// paper): the set whose updates must refresh this DO.
    pub assoc: Vec<Oid>,
    /// Derived attributes (projections + computed), in class order.
    pub attrs: Vec<(String, Value)>,
    /// Screen geometry assigned by the layout (a GUI-only attribute that
    /// must not live in the database schema, § 2.1).
    pub geometry: Option<Rect>,
    /// Scene node currently drawing this DO.
    pub scene_node: Option<NodeId>,
    /// Needs re-derivation/redraw.
    pub dirty: bool,
    /// Set while an early-notify mark is outstanding: some transaction
    /// holds an exclusive lock on an associated object (§ 3.3 suggests
    /// displays "turn red" such objects to deter conflicting edits).
    pub marked_by: Option<TxnId>,
    /// Set while the connection is degraded: the DO keeps serving its
    /// last-known derivation, but the view may have drifted from the
    /// database. Cleared by the post-reconnect refresh (or wholesale at
    /// `Restored` for objects the resume protocol proved current).
    pub stale_since: Option<std::time::Instant>,
}

impl DisplayObject {
    /// Construct a fresh (dirty) display object.
    pub fn new(id: DoId, class: impl Into<String>, assoc: Vec<Oid>) -> Self {
        Self {
            id,
            class: class.into(),
            assoc,
            attrs: Vec::new(),
            geometry: None,
            scene_node: None,
            dirty: true,
            marked_by: None,
            stale_since: None,
        }
    }

    /// Whether this DO is serving a potentially drifted view (degraded
    /// connection, not yet resynced).
    pub fn is_stale(&self) -> bool {
        self.stale_since.is_some()
    }

    /// Look up a derived attribute.
    pub fn attr(&self, name: &str) -> Option<&Value> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Approximate in-memory footprint in bytes: attributes + OID list +
    /// fixed overhead. This is the display-cache side of the paper's
    /// "3 to 5 times smaller" measurement (§ 4.3).
    pub fn size_bytes(&self) -> usize {
        64 + 8 * self.assoc.len()
            + self
                .attrs
                .iter()
                .map(|(n, v)| n.len() + v.size_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let mut d = DisplayObject::new(DoId(1), "ColorCodedLink", vec![Oid::new(7)]);
        assert!(d.dirty);
        d.attrs.push(("Color".into(), Value::Int(0xFF0000)));
        assert_eq!(d.attr("Color"), Some(&Value::Int(0xFF0000)));
        assert_eq!(d.attr("Missing"), None);
    }

    #[test]
    fn size_scales_with_content() {
        let small = DisplayObject::new(DoId(1), "X", vec![Oid::new(1)]);
        let mut big = small.clone();
        big.assoc = (0..100).map(Oid::new).collect();
        big.attrs = (0..10)
            .map(|i| (format!("attr{i}"), Value::Float(0.0)))
            .collect();
        assert!(big.size_bytes() > small.size_bytes() + 800);
    }

    #[test]
    fn display_format() {
        assert_eq!(DoId(9).to_string(), "do:9");
    }
}
