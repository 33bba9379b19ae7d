//! The query AST: paths, predicates, operators, pipelines.

use std::fmt;
use typefuse_json::Number;

/// One navigation step of a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// Descend into a record field.
    Field(String),
    /// Descend into the elements of an array (`[]`).
    Item,
}

/// A root-anchored path, written `$.a.b[].c`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    steps: Vec<Step>,
}

impl Path {
    /// The root path `$`.
    pub fn root() -> Self {
        Path { steps: Vec::new() }
    }

    /// Build from steps.
    pub fn new(steps: Vec<Step>) -> Self {
        Path { steps }
    }

    /// The steps in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Append a field step (builder-style).
    pub fn field(mut self, name: impl Into<String>) -> Self {
        self.steps.push(Step::Field(name.into()));
        self
    }

    /// Append an item step (builder-style).
    pub fn item(mut self) -> Self {
        self.steps.push(Step::Item);
        self
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$")?;
        for step in &self.steps {
            match step {
                Step::Field(name) => write!(f, ".{name}")?,
                Step::Item => write!(f, "[]")?,
            }
        }
        Ok(())
    }
}

/// A scalar comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Comparison::Eq => "==",
            Comparison::Ne => "!=",
            Comparison::Lt => "<",
            Comparison::Gt => ">",
        })
    }
}

/// A scalar literal in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Number(n) => write!(f, "{n}"),
            Literal::String(s) => write!(f, "{s:?}"),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// A row predicate for `filter`.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// The path resolves to at least one value in the row.
    Exists(Path),
    /// Some value at the path compares true against the literal.
    Compare(Path, Comparison, Literal),
    /// Negation.
    Not(Box<Predicate>),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Exists(p) => write!(f, "exists {p}"),
            Predicate::Compare(p, op, lit) => write!(f, "{p} {op} {lit}"),
            Predicate::Not(inner) => write!(f, "not ({inner})"),
            Predicate::And(a, b) => write!(f, "({a}) and ({b})"),
            Predicate::Or(a, b) => write!(f, "({a}) or ({b})"),
        }
    }
}

/// One pipeline operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Keep rows satisfying the predicate.
    Filter(Predicate),
    /// Keep only the listed paths of each row (schema-based projection).
    Project(Vec<Path>),
    /// Replace each row by one row per element of the array at the path;
    /// rows where the path is absent or the array is empty are dropped.
    Flatten(Path),
    /// Keep at most `n` rows.
    Limit(usize),
    /// Drop duplicate rows (first occurrence wins).
    Distinct,
    /// Replace the rows by a single `{count: Num}` row.
    Count,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Filter(p) => write!(f, "filter {p}"),
            Op::Project(paths) => {
                write!(f, "project ")?;
                for (i, p) in paths.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Op::Flatten(p) => write!(f, "flatten {p}"),
            Op::Limit(n) => write!(f, "limit {n}"),
            Op::Distinct => write!(f, "distinct"),
            Op::Count => write!(f, "count"),
        }
    }
}

/// A sequence of operators applied left to right.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    /// The operators in application order.
    pub ops: Vec<Op>,
}

impl Pipeline {
    /// An empty (identity) pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an operator (builder-style).
    pub fn then(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_display_and_builders() {
        let p = Path::root().field("a").item().field("b");
        assert_eq!(p.to_string(), "$.a[].b");
        assert_eq!(Path::root().to_string(), "$");
        assert!(Path::root().steps().is_empty());
    }

    #[test]
    fn display_round_trip_shapes() {
        let pred = Predicate::And(
            Box::new(Predicate::Exists(Path::root().field("a"))),
            Box::new(Predicate::Compare(
                Path::root().field("n"),
                Comparison::Gt,
                Literal::Number(Number::Int(3)),
            )),
        );
        assert_eq!(pred.to_string(), "(exists $.a) and ($.n > 3)");

        let pipe = Pipeline::new()
            .then(Op::Filter(pred))
            .then(Op::Project(vec![Path::root().field("a")]))
            .then(Op::Limit(10));
        let text = pipe.to_string();
        assert!(text.contains("filter"));
        assert!(text.contains("project $.a"));
        assert!(text.ends_with("limit 10"));
    }
}
