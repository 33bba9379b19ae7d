//! Type kinds, numbered exactly as in the paper (Section 4):
//!
//! ```text
//! kind(Null) = 0   kind(Bool) = 1   kind(Num) = 2   kind(Str) = 3
//! kind(RT)   = 4   kind(AT) = kind(SAT) = 5
//! ```
//!
//! Positional and simplified (starred) array types share kind 5: that is
//! what lets `LFuse` match an un-simplified array type against an already
//! fused `[T*]` (Figure 6, lines 4–7).

use std::fmt;

/// The kind of a non-union, non-empty type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TypeKind {
    /// `Null` — kind 0.
    Null = 0,
    /// `Bool` — kind 1.
    Bool = 1,
    /// `Num` — kind 2.
    Num = 2,
    /// `Str` — kind 3.
    Str = 3,
    /// Record types — kind 4.
    Record = 4,
    /// Array types, positional or starred — kind 5.
    Array = 5,
}

impl TypeKind {
    /// All six kinds, in paper order.
    pub const ALL: [TypeKind; 6] = [
        TypeKind::Null,
        TypeKind::Bool,
        TypeKind::Num,
        TypeKind::Str,
        TypeKind::Record,
        TypeKind::Array,
    ];

    /// The paper's numeric code for this kind.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Whether this is one of the four basic kinds (`kind < 4` in the
    /// side-condition of `LFuse` line 2).
    pub fn is_basic(self) -> bool {
        self.code() < 4
    }
}

impl fmt::Display for TypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TypeKind::Null => "Null",
            TypeKind::Bool => "Bool",
            TypeKind::Num => "Num",
            TypeKind::Str => "Str",
            TypeKind::Record => "Record",
            TypeKind::Array => "Array",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_the_paper() {
        assert_eq!(TypeKind::Null.code(), 0);
        assert_eq!(TypeKind::Bool.code(), 1);
        assert_eq!(TypeKind::Num.code(), 2);
        assert_eq!(TypeKind::Str.code(), 3);
        assert_eq!(TypeKind::Record.code(), 4);
        assert_eq!(TypeKind::Array.code(), 5);
    }

    #[test]
    fn basic_kinds_are_below_four() {
        for k in TypeKind::ALL {
            assert_eq!(k.is_basic(), k.code() < 4);
        }
    }

    #[test]
    fn ordering_follows_codes() {
        let mut all = TypeKind::ALL;
        all.sort();
        assert_eq!(all, TypeKind::ALL);
    }
}
