//! Typed persistent objects.
//!
//! A [`DbObject`] is one instance of a catalog class: an OID, a class id,
//! and one [`Value`] per attribute of the class layout. Its encoding
//! (`class id + values`) is what travels on the wire, sits in heap-file
//! records, and is measured by the cache-footprint experiments.

use crate::catalog::Catalog;
use crate::projection::diff_objects;
use crate::types::Value;
use displaydb_common::{ClassId, DbError, DbResult, Oid};
use displaydb_wire::{fnv1a, Decode, Encode, WireReader, WireWriter};

/// One persistent object.
#[derive(Clone, Debug, PartialEq)]
pub struct DbObject {
    /// The object's identity (0 until assigned by the server).
    pub oid: Oid,
    /// The class whose layout `values` follows.
    pub class: ClassId,
    /// One value per attribute in the class layout order.
    pub values: Vec<Value>,
}

impl DbObject {
    /// Create an instance of `class` with all defaults.
    pub fn new(catalog: &Catalog, class: ClassId) -> DbResult<Self> {
        Ok(Self {
            oid: Oid::new(0),
            class,
            values: catalog.defaults(class)?,
        })
    }

    /// Create an instance of the class named `class_name` with defaults.
    pub fn new_named(catalog: &Catalog, class_name: &str) -> DbResult<Self> {
        let id = catalog
            .id_of(class_name)
            .ok_or_else(|| DbError::ClassNotFound(class_name.to_string()))?;
        Self::new(catalog, id)
    }

    /// Read an attribute by name.
    pub fn get(&self, catalog: &Catalog, attr: &str) -> DbResult<&Value> {
        let idx = catalog.attr_index(self.class, attr)?;
        self.values
            .get(idx)
            .ok_or_else(|| DbError::Corrupt(format!("object {} missing value {idx}", self.oid)))
    }

    /// Write an attribute by name, enforcing the declared type.
    pub fn set(&mut self, catalog: &Catalog, attr: &str, value: impl Into<Value>) -> DbResult<()> {
        let value = value.into();
        let idx = catalog.attr_index(self.class, attr)?;
        let expected = catalog.layout(self.class)?[idx].ty;
        if value.attr_type() != expected {
            return Err(DbError::SchemaViolation(format!(
                "attribute {attr}: expected {}, got {}",
                expected.name(),
                value.attr_type().name()
            )));
        }
        self.values[idx] = value;
        Ok(())
    }

    /// Builder-style [`DbObject::set`] for construction chains.
    pub fn with(
        mut self,
        catalog: &Catalog,
        attr: &str,
        value: impl Into<Value>,
    ) -> DbResult<Self> {
        self.set(catalog, attr, value)?;
        Ok(self)
    }

    /// Validate that the value vector matches the class layout exactly.
    pub fn validate(&self, catalog: &Catalog) -> DbResult<()> {
        let layout = catalog.layout(self.class)?;
        if layout.len() != self.values.len() {
            return Err(DbError::SchemaViolation(format!(
                "object {}: {} values for {} attributes",
                self.oid,
                self.values.len(),
                layout.len()
            )));
        }
        for (attr, value) in layout.iter().zip(&self.values) {
            if value.attr_type() != attr.ty {
                return Err(DbError::SchemaViolation(format!(
                    "object {}: attribute {} expects {}, holds {}",
                    self.oid,
                    attr.name,
                    attr.ty.name(),
                    value.attr_type().name()
                )));
            }
        }
        Ok(())
    }

    /// Approximate in-memory footprint: per-value sizes plus fixed
    /// object overhead. This is the quantity the § 4.3 size comparison
    /// (database cache vs display cache) reports.
    pub fn size_bytes(&self) -> usize {
        48 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// The FNV-1a fingerprint of this object's encoding: how a commit's
    /// patch names the state it was computed against, and how the server
    /// recognises that state in its store.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.encode_to_bytes())
    }

    /// The attributes in which `self` differs from `base`, as `(layout
    /// index, encoded value)` pairs in ascending index order: the change
    /// set a `Delta` carries and a patch ships. Applied to `base` with
    /// [`DbObject::apply_changes`], it yields `self`.
    pub fn changes_since(&self, base: &DbObject) -> Vec<(u16, Vec<u8>)> {
        diff_objects(base, self)
            .into_iter()
            .map(|(attr, value)| (attr, value.encode_to_bytes().to_vec()))
            .collect()
    }

    /// Overwrite attributes from `(layout index, encoded value)` pairs,
    /// all or nothing. Refused, with the object untouched: an index
    /// outside the layout or not above the one before it (so none twice),
    /// and a value that does not decode or is not of the type it replaces.
    pub fn apply_changes(&mut self, changed: &[(u16, Vec<u8>)]) -> DbResult<()> {
        let mut decoded = Vec::with_capacity(changed.len());
        let mut next = 0;
        for (attr, bytes) in changed {
            let idx = usize::from(*attr);
            let Some(old) = self.values.get(idx).filter(|_| idx >= next) else {
                return Err(DbError::InvalidArgument(format!(
                    "attribute {idx} of {} is outside its layout or out of order",
                    self.oid
                )));
            };
            let value = Value::decode_from_bytes(bytes)?;
            if value.attr_type() != old.attr_type() {
                return Err(DbError::SchemaViolation(format!(
                    "attribute {idx} of {} holds {}, not {}",
                    self.oid,
                    old.attr_type().name(),
                    value.attr_type().name()
                )));
            }
            decoded.push((idx, value));
            next = idx + 1;
        }
        for (idx, value) in decoded {
            self.values[idx] = value;
        }
        Ok(())
    }
}

impl Encode for DbObject {
    fn encode(&self, w: &mut WireWriter) {
        self.oid.encode(w);
        self.class.encode(w);
        w.put_varint(self.values.len() as u64);
        for v in &self.values {
            v.encode(w);
        }
    }
}

impl Decode for DbObject {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let oid = Oid::decode(r)?;
        let class = ClassId::decode(r)?;
        let n = r.get_varint()? as usize;
        let mut values = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            values.push(Value::decode(r)?);
        }
        Ok(Self { oid, class, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;
    use crate::types::AttrType;
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Link")
                .attr("Name", AttrType::Str)
                .attr("Utilization", AttrType::Float)
                .attr("Endpoints", AttrType::RefList),
        )
        .unwrap();
        c
    }

    #[test]
    fn new_object_has_defaults() {
        let c = catalog();
        let o = DbObject::new_named(&c, "Link").unwrap();
        assert_eq!(o.get(&c, "Utilization").unwrap(), &Value::Float(0.0));
        o.validate(&c).unwrap();
    }

    #[test]
    fn set_enforces_types() {
        let c = catalog();
        let mut o = DbObject::new_named(&c, "Link").unwrap();
        o.set(&c, "Utilization", 0.75).unwrap();
        assert_eq!(o.get(&c, "Utilization").unwrap(), &Value::Float(0.75));
        assert!(o.set(&c, "Utilization", "high").is_err());
        assert!(o.set(&c, "Missing", 1.0).is_err());
    }

    #[test]
    fn builder_chain() {
        let c = catalog();
        let o = DbObject::new_named(&c, "Link")
            .unwrap()
            .with(&c, "Name", "link-1")
            .unwrap()
            .with(&c, "Utilization", 0.5)
            .unwrap();
        assert_eq!(o.get(&c, "Name").unwrap(), &Value::Str("link-1".into()));
    }

    #[test]
    fn validate_catches_corruption() {
        let c = catalog();
        let mut o = DbObject::new_named(&c, "Link").unwrap();
        o.values.pop();
        assert!(o.validate(&c).is_err());
        let mut o2 = DbObject::new_named(&c, "Link").unwrap();
        o2.values[1] = Value::Str("wrong".into());
        assert!(o2.validate(&c).is_err());
    }

    #[test]
    fn codec_roundtrip() {
        let c = catalog();
        let mut o = DbObject::new_named(&c, "Link").unwrap();
        o.oid = Oid::new(42);
        o.set(&c, "Name", "backbone").unwrap();
        o.set(&c, "Endpoints", vec![Oid::new(1), Oid::new(2)])
            .unwrap();
        let bytes = o.encode_to_bytes();
        let back = DbObject::decode_from_bytes(&bytes).unwrap();
        assert_eq!(back, o);
        back.validate(&c).unwrap();
    }

    #[test]
    fn size_grows_with_payload() {
        let c = catalog();
        let small = DbObject::new_named(&c, "Link").unwrap();
        let big = small
            .clone()
            .with(&c, "Name", "x".repeat(1000).as_str())
            .unwrap();
        assert!(big.size_bytes() > small.size_bytes() + 900);
    }

    #[test]
    fn changes_since_then_apply_changes_rebuilds_the_object() {
        let c = catalog();
        let base = DbObject::new_named(&c, "Link").unwrap();
        let new = base
            .clone()
            .with(&c, "Utilization", 0.5)
            .unwrap()
            .with(&c, "Endpoints", vec![Oid::new(3)])
            .unwrap();
        let changed = new.changes_since(&base);
        assert_eq!(changed.iter().map(|(a, _)| *a).collect::<Vec<_>>(), [1, 2]);
        let mut rebuilt = base.clone();
        rebuilt.apply_changes(&changed).unwrap();
        assert_eq!(rebuilt, new);
        assert_eq!(rebuilt.fingerprint(), new.fingerprint());
        assert_ne!(base.fingerprint(), new.fingerprint());
        // -0.0 == 0.0, but it encodes differently: it is a change.
        let negative = base.clone().with(&c, "Utilization", -0.0).unwrap();
        assert_eq!(negative.changes_since(&base).len(), 1);
    }

    #[test]
    fn apply_changes_is_all_or_nothing() {
        let c = catalog();
        let base = DbObject::new_named(&c, "Link").unwrap();
        let float = |v: f64| Value::Float(v).encode_to_bytes().to_vec();
        let name = Value::Str("x".into()).encode_to_bytes().to_vec();
        for (bad, kind) in [
            (vec![(1, float(0.5)), (3, float(0.5))], "invalid_argument"),
            (vec![(1, float(0.5)), (1, float(0.7))], "invalid_argument"),
            (vec![(1, float(0.5)), (0, name.clone())], "invalid_argument"),
            (vec![(0, name.clone()), (1, vec![0xff])], "corrupt"),
            (
                vec![(0, name), (1, Value::Int(1).encode_to_bytes().to_vec())],
                "schema_violation",
            ),
        ] {
            let mut patched = base.clone();
            assert_eq!(patched.apply_changes(&bad).unwrap_err().kind(), kind);
            assert_eq!(patched, base);
        }
    }

    proptest! {
        #[test]
        fn prop_object_roundtrip(name in ".{0,40}", util in any::<f64>().prop_filter("nan", |f| !f.is_nan()),
                                 eps in proptest::collection::vec(any::<u64>(), 0..10)) {
            let c = catalog();
            let mut o = DbObject::new_named(&c, "Link").unwrap();
            o.oid = Oid::new(7);
            o.set(&c, "Name", name.as_str()).unwrap();
            o.set(&c, "Utilization", util).unwrap();
            o.set(&c, "Endpoints", eps.into_iter().map(Oid::new).collect::<Vec<_>>()).unwrap();
            let back = DbObject::decode_from_bytes(&o.encode_to_bytes()).unwrap();
            prop_assert_eq!(back, o);
        }
    }
}
