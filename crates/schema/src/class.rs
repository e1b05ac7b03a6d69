//! Class and attribute definitions.

use crate::types::{AttrType, Value};
use displaydb_common::{ClassId, DbError, DbResult};
use displaydb_wire::{Decode, Encode, WireReader, WireWriter};

/// One attribute of a class.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrDef {
    /// Attribute name, unique within the class (including inherited
    /// attributes).
    pub name: String,
    /// Declared type.
    pub ty: AttrType,
    /// Value used when an object is created without this attribute.
    pub default: Value,
}

impl AttrDef {
    /// An attribute with the type's zero default.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Self {
            name: name.into(),
            ty,
            default: ty.default_value(),
        }
    }

    /// An attribute with an explicit default.
    pub fn with_default(name: impl Into<String>, ty: AttrType, default: Value) -> DbResult<Self> {
        if default.attr_type() != ty {
            return Err(DbError::SchemaViolation(format!(
                "default of type {} does not match attribute type {}",
                default.attr_type().name(),
                ty.name()
            )));
        }
        Ok(Self {
            name: name.into(),
            ty,
            default,
        })
    }
}

/// A class in the database schema. Classes form a single-inheritance
/// hierarchy; an object of a subclass carries all inherited attributes.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassDef {
    /// Catalog-assigned identifier.
    pub id: ClassId,
    /// Unique class name.
    pub name: String,
    /// Parent class, if any.
    pub parent: Option<ClassId>,
    /// Attributes declared *by this class* (not inherited).
    pub attrs: Vec<AttrDef>,
}

/// Builder used with [`crate::catalog::Catalog::define`].
#[derive(Clone, Debug, Default)]
pub struct ClassBuilder {
    pub(crate) name: String,
    pub(crate) parent: Option<String>,
    pub(crate) attrs: Vec<AttrDef>,
}

impl ClassBuilder {
    /// Start a class named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            parent: None,
            attrs: Vec::new(),
        }
    }

    /// Inherit from `parent` (must already be defined in the catalog).
    pub fn extends(mut self, parent: impl Into<String>) -> Self {
        self.parent = Some(parent.into());
        self
    }

    /// Add an attribute with the type's default.
    pub fn attr(mut self, name: impl Into<String>, ty: AttrType) -> Self {
        self.attrs.push(AttrDef::new(name, ty));
        self
    }

    /// Add an attribute with an explicit default value.
    pub fn attr_default(
        mut self,
        name: impl Into<String>,
        ty: AttrType,
        default: impl Into<Value>,
    ) -> Self {
        // Type mismatch is caught at define() time.
        self.attrs.push(AttrDef {
            name: name.into(),
            ty,
            default: default.into(),
        });
        self
    }
}

impl Encode for AttrDef {
    fn encode(&self, w: &mut WireWriter) {
        self.name.encode(w);
        self.ty.encode(w);
        self.default.encode(w);
    }
}

impl Decode for AttrDef {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(Self {
            name: String::decode(r)?,
            ty: AttrType::decode(r)?,
            default: Value::decode(r)?,
        })
    }
}

impl Encode for ClassDef {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.name.encode(w);
        self.parent.encode(w);
        w.put_varint(self.attrs.len() as u64);
        for a in &self.attrs {
            a.encode(w);
        }
    }
}

impl Decode for ClassDef {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let id = ClassId::decode(r)?;
        let name = String::decode(r)?;
        let parent = Option::<ClassId>::decode(r)?;
        let n = r.get_varint()? as usize;
        let mut attrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            attrs.push(AttrDef::decode(r)?);
        }
        Ok(Self {
            id,
            name,
            parent,
            attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_default_type_checked() {
        assert!(AttrDef::with_default("x", AttrType::Int, Value::Int(3)).is_ok());
        assert!(AttrDef::with_default("x", AttrType::Int, Value::Str("no".into())).is_err());
    }

    #[test]
    fn builder_accumulates() {
        let b = ClassBuilder::new("Link")
            .attr("Utilization", AttrType::Float)
            .attr_default("Status", AttrType::Str, "up");
        assert_eq!(b.name, "Link");
        assert_eq!(b.attrs.len(), 2);
        assert_eq!(b.attrs[1].default, Value::Str("up".into()));
    }

    #[test]
    fn classdef_codec_roundtrip() {
        let def = ClassDef {
            id: ClassId::new(3),
            name: "Link".into(),
            parent: Some(ClassId::new(1)),
            attrs: vec![
                AttrDef::new("Utilization", AttrType::Float),
                AttrDef::new("Endpoints", AttrType::RefList),
            ],
        };
        let bytes = def.encode_to_bytes();
        assert_eq!(ClassDef::decode_from_bytes(&bytes).unwrap(), def);
    }
}
