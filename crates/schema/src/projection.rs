//! Attribute projections: which attributes of a class a display consumes.
//!
//! The paper's display classes (§ 2.1) project a handful of GUI-relevant
//! attributes out of much larger database objects. A [`Projection`]
//! records that interest in schema terms — a class plus the layout
//! indices of the projected attributes — so the notification path can
//! ship attribute-level deltas instead of whole objects and suppress
//! notifications entirely when no projected attribute changed.
//!
//! The `version` field guards delta application on the client: a delta
//! carries the projection version it was computed against, and a client
//! whose registration has moved on (displays opened or closed since)
//! falls back to a full resync instead of patching against a stale
//! attribute set.

use crate::catalog::Catalog;
use crate::object::DbObject;
use crate::types::Value;
use displaydb_common::{ClassId, DbResult};
use displaydb_wire::{Decode, Encode, WireReader, WireWriter};

/// The projected attribute set of one class, as layout indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Projection {
    /// The class whose layout the indices refer to.
    pub class: ClassId,
    /// Projected attribute indices into the class layout, sorted and
    /// deduplicated. Empty means "no attribute is interesting" (every
    /// update is suppressed); full interest is expressed by *not*
    /// registering a projection at all.
    pub attrs: Vec<u16>,
    /// Registration version; deltas computed against an older version
    /// than the client's current registration force a resync.
    pub version: u32,
}

impl Projection {
    /// Build a projection from raw layout indices (sorted + deduped).
    pub fn new(class: ClassId, mut attrs: Vec<u16>, version: u32) -> Self {
        attrs.sort_unstable();
        attrs.dedup();
        Self {
            class,
            attrs,
            version,
        }
    }

    /// Resolve attribute names against the catalog layout of `class`.
    pub fn from_names<'a>(
        catalog: &Catalog,
        class: ClassId,
        names: impl IntoIterator<Item = &'a str>,
        version: u32,
    ) -> DbResult<Self> {
        let mut attrs = Vec::new();
        for name in names {
            attrs.push(catalog.attr_index(class, name)? as u16);
        }
        Ok(Self::new(class, attrs, version))
    }

    /// Whether the projection covers layout index `attr`.
    pub fn covers(&self, attr: u16) -> bool {
        self.attrs.binary_search(&attr).is_ok()
    }

    /// Whether any of `changed` intersects the projected set.
    pub fn intersects(&self, changed: &[u16]) -> bool {
        changed.iter().any(|a| self.covers(*a))
    }

    /// Union another projection's attribute set into this one (same
    /// object watched by several displays with different projections).
    pub fn union_with(&mut self, other: &Projection) {
        self.attrs.extend_from_slice(&other.attrs);
        self.attrs.sort_unstable();
        self.attrs.dedup();
    }
}

impl Encode for Projection {
    fn encode(&self, w: &mut WireWriter) {
        self.class.encode(w);
        w.put_varint(self.version as u64);
        w.put_varint(self.attrs.len() as u64);
        for a in &self.attrs {
            w.put_varint(*a as u64);
        }
    }
}

impl Decode for Projection {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let class = ClassId::decode(r)?;
        let version = u32::decode(r)?;
        let n = r.get_varint()? as usize;
        let mut attrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            attrs.push(u16::decode(r)?);
        }
        Ok(Self::new(class, attrs, version))
    }
}

/// Attribute-level diff between two states of the same object: the
/// layout indices whose values differ, with the new value. The server
/// computes this between the pre- and post-commit images to decide which
/// projected holders need a delta (and which need nothing at all).
///
/// Values differ when their encodings do: `-0.0` differs from `0.0`, and
/// a NaN does not differ from the same NaN.
pub fn diff_objects(old: &DbObject, new: &DbObject) -> Vec<(u16, Value)> {
    old.values
        .iter()
        .zip(new.values.iter())
        .enumerate()
        .filter(|(_, (a, b))| match (a, b) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() != b.to_bits(),
            _ => a != b,
        })
        .map(|(i, (_, b))| (i as u16, b.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;
    use crate::types::AttrType;

    fn catalog() -> (Catalog, ClassId) {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Link")
                .attr("Name", AttrType::Str)
                .attr("Utilization", AttrType::Float)
                .attr("Vendor", AttrType::Str),
        )
        .unwrap();
        let id = c.id_of("Link").unwrap();
        (c, id)
    }

    #[test]
    fn from_names_resolves_layout_indices() {
        let (c, link) = catalog();
        let p = Projection::from_names(&c, link, ["Utilization"], 1).unwrap();
        assert_eq!(p.attrs, vec![1]);
        assert!(p.covers(1));
        assert!(!p.covers(0));
        assert!(p.intersects(&[0, 1]));
        assert!(!p.intersects(&[0, 2]));
        assert!(Projection::from_names(&c, link, ["Nope"], 1).is_err());
    }

    #[test]
    fn new_sorts_and_dedups() {
        let p = Projection::new(ClassId::new(1), vec![3, 1, 3, 2], 0);
        assert_eq!(p.attrs, vec![1, 2, 3]);
    }

    #[test]
    fn union_merges_attr_sets() {
        let mut a = Projection::new(ClassId::new(1), vec![0, 2], 1);
        let b = Projection::new(ClassId::new(1), vec![1, 2], 2);
        a.union_with(&b);
        assert_eq!(a.attrs, vec![0, 1, 2]);
    }

    #[test]
    fn codec_roundtrip() {
        let p = Projection::new(ClassId::new(7), vec![0, 4, 9], 3);
        let back = Projection::decode_from_bytes(&p.encode_to_bytes()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn codec_rejects_over_wide_fields() {
        // Attr 65541 must not alias attr 5; version 2^32 must not alias 0.
        for (version, attr) in [(3u64, 65_541u64), (1 << 32, 5)] {
            let mut w = WireWriter::new();
            ClassId::new(7).encode(&mut w);
            w.put_varint(version);
            w.put_varint(1);
            w.put_varint(attr);
            assert!(matches!(
                Projection::decode_from_bytes(&w.finish()),
                Err(displaydb_common::DbError::Protocol(_))
            ));
        }
    }

    #[test]
    fn diff_reports_changed_indices_only() {
        let (c, _) = catalog();
        let old = DbObject::new_named(&c, "Link").unwrap();
        let mut new = old.clone();
        new.set(&c, "Utilization", 0.9).unwrap();
        new.set(&c, "Vendor", "acme").unwrap();
        let d = diff_objects(&old, &new);
        assert_eq!(
            d,
            vec![(1, Value::Float(0.9)), (2, Value::Str("acme".into()))]
        );
        assert!(diff_objects(&old, &old).is_empty());
    }
}
