//! Fluent builders for assembling models with less ceremony than the raw
//! `Model::add_*` API. Used heavily by examples, tests and the sample
//! model factory.

use crate::error::Result;
use crate::id::ElementId;
use crate::kinds::{Primitive, TypeRef};
use crate::model::Model;

/// Fluent builder that owns a [`Model`] under construction.
///
/// ```
/// use comet_model::{ModelBuilder, Primitive};
///
/// # fn main() -> Result<(), comet_model::ModelError> {
/// let model = ModelBuilder::new("shop")
///     .class("Order", |c| {
///         c.attribute("total", Primitive::Int)?
///             .operation("checkout", |o| o.parameter("fast", Primitive::Bool))
///     })?
///     .build();
/// assert!(model.find_class("Order").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelBuilder {
    model: Model,
    current_package: ElementId,
}

impl ModelBuilder {
    /// Starts building a model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        let model = Model::new(name);
        let root = model.root();
        ModelBuilder { model, current_package: root }
    }

    /// Adds a nested package and makes it current for subsequent calls.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model.
    pub fn package(mut self, name: &str) -> Result<Self> {
        self.current_package = self.model.add_package(self.current_package, name)?;
        Ok(self)
    }

    /// Adds a class to the current package and configures it via the
    /// closure.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model or closure.
    pub fn class<F>(mut self, name: &str, f: F) -> Result<Self>
    where
        F: FnOnce(ClassBuilder<'_>) -> Result<ClassBuilder<'_>>,
    {
        let id = self.model.add_class(self.current_package, name)?;
        f(ClassBuilder { model: &mut self.model, class: id })?;
        Ok(self)
    }

    /// Adds a generalization `child -> parent` by class simple names.
    ///
    /// # Errors
    /// Fails when either class is missing or the edge would form a cycle.
    pub fn generalization(mut self, child: &str, parent: &str) -> Result<Self> {
        let c = self
            .model
            .find_class(child)
            .ok_or_else(|| crate::ModelError::InvalidName(child.to_owned()))?;
        let p = self
            .model
            .find_class(parent)
            .ok_or_else(|| crate::ModelError::InvalidName(parent.to_owned()))?;
        self.model.add_generalization(c, p)?;
        Ok(self)
    }

    /// Finishes building and returns the model.
    pub fn build(self) -> Model {
        self.model
    }
}

/// Builder scoped to one class; returned to the closure of
/// [`ModelBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    model: &'a mut Model,
    class: ElementId,
}

impl<'a> ClassBuilder<'a> {
    /// The id of the class being built.
    pub fn id(&self) -> ElementId {
        self.class
    }

    /// Adds an attribute of a primitive type.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model.
    pub fn attribute(self, name: &str, ty: Primitive) -> Result<Self> {
        self.model.add_attribute(self.class, name, ty.into())?;
        Ok(self)
    }

    /// Adds an attribute referencing another classifier by id.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model.
    pub fn reference(self, name: &str, target: ElementId) -> Result<Self> {
        self.model.add_attribute(self.class, name, TypeRef::Element(target))?;
        Ok(self)
    }

    /// Adds an operation configured via the closure.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model or closure.
    pub fn operation<F>(self, name: &str, f: F) -> Result<Self>
    where
        F: FnOnce(OperationBuilder<'_>) -> Result<OperationBuilder<'_>>,
    {
        let op = self.model.add_operation(self.class, name)?;
        f(OperationBuilder { model: self.model, operation: op })?;
        Ok(self)
    }

    /// Applies a stereotype to the class.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model.
    pub fn stereotype(self, name: &str) -> Result<Self> {
        self.model.apply_stereotype(self.class, name)?;
        Ok(self)
    }
}

/// Builder scoped to one operation.
#[derive(Debug)]
pub struct OperationBuilder<'a> {
    model: &'a mut Model,
    operation: ElementId,
}

impl<'a> OperationBuilder<'a> {
    /// The id of the operation being built.
    pub fn id(&self) -> ElementId {
        self.operation
    }

    /// Adds an input parameter of a primitive type.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model.
    pub fn parameter(self, name: &str, ty: Primitive) -> Result<Self> {
        self.model.add_parameter(self.operation, name, ty.into())?;
        Ok(self)
    }

    /// Sets the return type to a primitive.
    ///
    /// # Errors
    /// Propagates [`crate::ModelError`] from the underlying model.
    pub fn returns(self, ty: Primitive) -> Result<Self> {
        self.model.set_return_type(self.operation, ty.into())?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_expected_shape() {
        let m = ModelBuilder::new("shop")
            .class("Order", |c| {
                c.attribute("total", Primitive::Int)?
                    .operation("checkout", |o| {
                        o.parameter("fast", Primitive::Bool)?.returns(Primitive::Bool)
                    })?
                    .stereotype("Entity")
            })
            .unwrap()
            .class("Customer", |c| Ok(c))
            .unwrap()
            .generalization("Order", "Customer")
            .unwrap()
            .build();

        let order = m.find_class("Order").unwrap();
        let customer = m.find_class("Customer").unwrap();
        assert!(m.has_stereotype(order, "Entity").unwrap());
        assert_eq!(m.attributes_of(order).len(), 1);
        let op = m.find_operation(order, "checkout").unwrap();
        assert_eq!(m.parameters_of(op).len(), 1);
        assert!(m.is_kind_of(order, customer));
        assert!(m.validate().is_ok());
    }

    #[test]
    fn nested_packages_scope_subsequent_classes() {
        let m = ModelBuilder::new("app")
            .package("domain")
            .unwrap()
            .class("Thing", |c| Ok(c))
            .unwrap()
            .build();
        assert!(m.find_by_qualified_name("app::domain::Thing").is_some());
    }

    #[test]
    fn generalization_by_unknown_name_fails() {
        let r = ModelBuilder::new("app").generalization("A", "B");
        assert!(r.is_err());
    }
}
