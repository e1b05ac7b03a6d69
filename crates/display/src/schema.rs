//! Display classes: external schemas over database classes (§ 3.1).
//!
//! A display class declares how a display object's attributes derive
//! from one or more database objects:
//!
//! * **projections** copy a database attribute verbatim (the `Link`
//!   example keeps only `Utilization` out of a large persistent class);
//! * **computed attributes** run a closure over all associated source
//!   objects — color coding, width coding, multi-object aggregation
//!   ("the path line's utilization may be the maximum or average over
//!   all its links", § 3.1).
//!
//! A class does not declare what it reads: [`DeriveCtx`] records it, and
//! a display locks exactly that (DESIGN.md § 10) — all of it only for a
//! class built with [`DisplayClassBuilder::whole_object`].
//!
//! The database schema is never touched: this is what keeps GUI design
//! orthogonal to database design (§ 2.1).

use displaydb_common::{ClassId, DbError, DbResult};
use displaydb_schema::{Catalog, DbObject, Value};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A source attribute a derivation read: the source's class and the
/// attribute's index in that class's layout.
pub type SourceAttr = (ClassId, u16);

/// Context handed to derivation closures; it records what they read.
pub struct DeriveCtx<'a> {
    /// The database catalog (attribute lookup).
    pub catalog: &'a Catalog,
    sources: &'a [DbObject],
    reads: RefCell<BTreeSet<SourceAttr>>,
}

impl<'a> DeriveCtx<'a> {
    /// Attribute of source `i` (association order).
    pub fn source(&self, i: usize, attr: &str) -> DbResult<&'a Value> {
        let source = self
            .sources
            .get(i)
            .ok_or_else(|| DbError::InvalidArgument(format!("display object has no source {i}")))?;
        let index = self.catalog.attr_index(source.class, attr)?;
        self.reads.borrow_mut().insert((source.class, index as u16));
        source.get(self.catalog, attr)
    }

    /// Attribute of the primary (first) source.
    pub fn primary(&self, attr: &str) -> DbResult<&'a Value> {
        self.source(0, attr)
    }

    /// The named attribute across all sources, as floats (aggregation
    /// helper).
    pub fn floats(&self, attr: &str) -> DbResult<Vec<f64>> {
        (0..self.sources.len())
            .map(|i| self.source(i, attr)?.as_float())
            .collect()
    }

    /// Maximum of the attribute across sources.
    pub fn max_float(&self, attr: &str) -> DbResult<f64> {
        Ok(self
            .floats(attr)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Mean of the attribute across sources.
    pub fn avg_float(&self, attr: &str) -> DbResult<f64> {
        let v = self.floats(attr)?;
        if v.is_empty() {
            return Err(DbError::InvalidArgument("no sources to average".into()));
        }
        Ok(v.iter().sum::<f64>() / v.len() as f64)
    }
}

type ComputeFn = Arc<dyn Fn(&DeriveCtx<'_>) -> DbResult<Value> + Send + Sync>;

type Reading = (DbResult<Vec<(String, Value)>>, BTreeSet<SourceAttr>);

enum Step {
    /// Copy these attributes from the primary source.
    Project(Vec<String>),
    /// Compute one attribute from all sources.
    Compute { name: String, f: ComputeFn },
}

/// A display class definition.
pub struct DisplayClassDef {
    name: String,
    steps: Vec<Step>,
    /// Full-interest display locks ([`DisplayClassBuilder::whole_object`]).
    pub(crate) whole_object: bool,
}

impl DisplayClassDef {
    /// The class name (e.g. `"ColorCodedLink"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of all attributes this class derives, in order.
    pub fn attr_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for step in &self.steps {
            match step {
                Step::Project(attrs) => out.extend(attrs.iter().map(String::as_str)),
                Step::Compute { name, .. } => out.push(name.as_str()),
            }
        }
        out
    }

    /// Run the derivation over `sources`, producing the display
    /// attribute list.
    pub fn derive(
        &self,
        catalog: &Catalog,
        sources: &[DbObject],
    ) -> DbResult<Vec<(String, Value)>> {
        self.derive_reading(catalog, sources).0
    }

    /// [`Self::derive`], and every source attribute it read — also when it
    /// failed, which may have been for want of an attribute it was not
    /// given.
    pub(crate) fn derive_reading(&self, catalog: &Catalog, sources: &[DbObject]) -> Reading {
        let ctx = DeriveCtx {
            catalog,
            sources,
            reads: RefCell::default(),
        };
        let run = || {
            let mut out = Vec::new();
            for step in &self.steps {
                match step {
                    Step::Project(attrs) => {
                        for attr in attrs {
                            out.push((attr.clone(), ctx.primary(attr)?.clone()));
                        }
                    }
                    Step::Compute { name, f } => out.push((name.clone(), f(&ctx)?)),
                }
            }
            Ok(out)
        };
        let out = run();
        (out, ctx.reads.into_inner())
    }
}

impl std::fmt::Debug for DisplayClassDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisplayClassDef")
            .field("name", &self.name)
            .field("attrs", &self.attr_names())
            .finish()
    }
}

/// Builder for display classes.
pub struct DisplayClassBuilder {
    name: String,
    steps: Vec<Step>,
    whole_object: bool,
}

impl DisplayClassBuilder {
    /// Start a display class named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
            whole_object: false,
        }
    }

    /// Copy attributes from the primary database object.
    pub fn project(mut self, attrs: &[&str]) -> Self {
        self.steps
            .push(Step::Project(attrs.iter().map(|s| s.to_string()).collect()));
        self
    }

    /// Add a computed attribute. What it reads through the [`DeriveCtx`]
    /// is what its display objects' locks cover.
    pub fn compute(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&DeriveCtx<'_>) -> DbResult<Value> + Send + Sync + 'static,
    ) -> Self {
        self.steps.push(Step::Compute {
            name: name.into(),
            f: Arc::new(f),
        });
        self
    }

    /// Watch every attribute of the sources with full-interest display
    /// locks, whatever the class reads: each commit to a source arrives as
    /// `Updated` and refreshes from its payload (eager shipping) or a read
    /// — the paper's post-commit protocol (§ 3.3), for experiments that
    /// reproduce it.
    pub fn whole_object(mut self) -> Self {
        self.whole_object = true;
        self
    }

    /// Finish.
    pub fn build(self) -> Arc<DisplayClassDef> {
        Arc::new(DisplayClassDef {
            name: self.name,
            steps: self.steps,
            whole_object: self.whole_object,
        })
    }
}

/// Figure 1's `ColorCodedLink`: projects `Utilization` and color-codes it
/// with the paper's red/pink/white bands. The color is stored as a packed
/// RGB integer.
pub fn color_coded_link(utilization_attr: &str) -> Arc<DisplayClassDef> {
    let attr = utilization_attr.to_string();
    DisplayClassBuilder::new("ColorCodedLink")
        .project(&[utilization_attr])
        .compute("Color", move |ctx| {
            let u = ctx.max_float(&attr)?;
            Ok(Value::Int(i64::from(
                displaydb_viz::utilization_color(u).to_u32(),
            )))
        })
        .build()
}

/// Figure 1's `WidthCodedLink`: projects `Utilization` and width-codes it
/// (line width proportional to utilization).
pub fn width_coded_link(utilization_attr: &str) -> Arc<DisplayClassDef> {
    let attr = utilization_attr.to_string();
    DisplayClassBuilder::new("WidthCodedLink")
        .project(&[utilization_attr])
        .compute("Width", move |ctx| {
            let u = ctx.max_float(&attr)?;
            Ok(Value::Float(f64::from(displaydb_viz::utilization_width(
                u, 1.0, 9.0,
            ))))
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_common::Oid;
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Link")
                .attr("Name", AttrType::Str)
                .attr("Utilization", AttrType::Float)
                .attr("Vendor", AttrType::Str)
                .attr("Notes", AttrType::Str),
        )
        .unwrap();
        c
    }

    fn link(cat: &Catalog, oid: u64, util: f64) -> DbObject {
        let mut o = DbObject::new_named(cat, "Link").unwrap();
        o.oid = Oid::new(oid);
        o.set(cat, "Utilization", util).unwrap();
        o.set(cat, "Name", format!("link-{oid}")).unwrap();
        o.set(cat, "Vendor", "acme networks inc").unwrap();
        o.set(cat, "Notes", "long irrelevant operational notes")
            .unwrap();
        o
    }

    #[test]
    fn projection_copies_only_named_attrs() {
        let cat = catalog();
        let dc = DisplayClassBuilder::new("Minimal")
            .project(&["Name", "Utilization"])
            .build();
        let attrs = dc.derive(&cat, &[link(&cat, 1, 0.5)]).unwrap();
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].0, "Name");
        assert_eq!(attrs[1].1, Value::Float(0.5));
        // Vendor/Notes were filtered out — the paper's core size
        // argument.
    }

    #[test]
    fn color_coded_link_matches_paper_bands() {
        let cat = catalog();
        let dc = color_coded_link("Utilization");
        let color_of = |u: f64| -> u32 {
            let attrs = dc.derive(&cat, &[link(&cat, 1, u)]).unwrap();
            match attrs.iter().find(|(n, _)| n == "Color").unwrap().1 {
                Value::Int(v) => v as u32,
                ref other => panic!("{other:?}"),
            }
        };
        assert_eq!(color_of(0.1), displaydb_viz::Color::WHITE.to_u32());
        assert_eq!(color_of(0.5), displaydb_viz::Color::PINK.to_u32());
        assert_eq!(color_of(0.95), displaydb_viz::Color::RED.to_u32());
    }

    #[test]
    fn width_coded_link_proportional() {
        let cat = catalog();
        let dc = width_coded_link("Utilization");
        let width_of = |u: f64| -> f64 {
            let attrs = dc.derive(&cat, &[link(&cat, 1, u)]).unwrap();
            attrs
                .iter()
                .find(|(n, _)| n == "Width")
                .unwrap()
                .1
                .as_float()
                .unwrap()
        };
        assert!(width_of(0.0) < width_of(0.5));
        assert!(width_of(0.5) < width_of(1.0));
        assert!((width_of(1.0) - 9.0).abs() < 1e-5);
    }

    #[test]
    fn multi_source_aggregation_path_example() {
        // § 3.1: a path represented by one line whose utilization is the
        // max/avg over all its links.
        let cat = catalog();
        let dc = DisplayClassBuilder::new("PathLine")
            .compute("MaxUtil", |ctx| {
                Ok(Value::Float(ctx.max_float("Utilization")?))
            })
            .compute("AvgUtil", |ctx| {
                Ok(Value::Float(ctx.avg_float("Utilization")?))
            })
            .build();
        let sources = vec![link(&cat, 1, 0.2), link(&cat, 2, 0.8), link(&cat, 3, 0.5)];
        let attrs = dc.derive(&cat, &sources).unwrap();
        assert_eq!(attrs[0].1, Value::Float(0.8));
        assert_eq!(attrs[1].1, Value::Float(0.5));
    }

    #[test]
    fn derive_with_no_sources_fails_cleanly() {
        let cat = catalog();
        let dc = DisplayClassBuilder::new("X").project(&["Name"]).build();
        assert!(dc.derive(&cat, &[]).is_err());
    }

    #[test]
    fn unknown_attr_fails() {
        let cat = catalog();
        let dc = DisplayClassBuilder::new("X").project(&["Nope"]).build();
        assert!(dc.derive(&cat, &[link(&cat, 1, 0.1)]).is_err());
    }

    /// The layout index of `attr` in `Link`, as a recorded read.
    fn read(cat: &Catalog, attr: &str) -> SourceAttr {
        let class = cat.id_of("Link").unwrap();
        (class, cat.attr_index(class, attr).unwrap() as u16)
    }

    #[test]
    fn derivation_records_what_it_reads() {
        let cat = catalog();
        let dc = DisplayClassBuilder::new("X")
            .project(&["Utilization", "Name"])
            .compute("Color", |ctx| Ok(ctx.primary("Utilization")?.clone()))
            .compute("Constant", |_| Ok(Value::Int(0)))
            .build();
        let (attrs, reads) = dc.derive_reading(&cat, &[link(&cat, 1, 0.5)]);
        assert_eq!(attrs.unwrap().len(), 4);
        // Deduplicated and sorted by layout index.
        assert_eq!(
            reads,
            [read(&cat, "Name"), read(&cat, "Utilization")].into()
        );
        for class in [
            color_coded_link("Utilization"),
            width_coded_link("Utilization"),
        ] {
            let (_, reads) = class.derive_reading(&cat, &[link(&cat, 1, 0.5), link(&cat, 2, 0.1)]);
            assert_eq!(
                reads,
                [read(&cat, "Utilization")].into(),
                "{}",
                class.name()
            );
        }
    }

    #[test]
    fn a_data_dependent_branch_reads_what_it_took() {
        let cat = catalog();
        let dc = DisplayClassBuilder::new("Branch")
            .compute("Label", |ctx| {
                match ctx.primary("Utilization")?.as_float()? > 0.8 {
                    true => Ok(ctx.source(1, "Vendor")?.clone()),
                    false => Ok(Value::Str(String::new())),
                }
            })
            .build();
        let (_, quiet) = dc.derive_reading(&cat, &[link(&cat, 1, 0.5), link(&cat, 2, 0.5)]);
        assert_eq!(quiet, [read(&cat, "Utilization")].into());
        let (_, busy) = dc.derive_reading(&cat, &[link(&cat, 1, 0.9), link(&cat, 2, 0.5)]);
        assert_eq!(
            busy,
            [read(&cat, "Utilization"), read(&cat, "Vendor")].into()
        );
        // A failed derivation still reports what it read before failing.
        let (attrs, failed) = dc.derive_reading(&cat, &[link(&cat, 1, 0.9)]);
        assert!(attrs.is_err());
        assert_eq!(failed, quiet);
    }

    #[test]
    fn attr_names_in_declaration_order() {
        let dc = DisplayClassBuilder::new("X")
            .project(&["A", "B"])
            .compute("C", |_| Ok(Value::Int(0)))
            .build();
        assert_eq!(dc.attr_names(), vec!["A", "B", "C"]);
        assert_eq!(dc.name(), "X");
    }
}
