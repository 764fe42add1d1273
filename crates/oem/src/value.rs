//! Atomic values and the ANNODA type extension of OEM.
//!
//! Plain OEM distinguishes only atomic and complex objects. ANNODA extends
//! the model with the *data type of the object's value* so that values from
//! different sources can be compared during integration. The disjoint basic
//! atomic types named in the paper are integer, real, string and gif; we add
//! boolean and URL, which the paper's figures use (`Links` targets are
//! web-links, and exclusion flags in the query interface are boolean).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// The type tag of an atomic value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AtomicType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Real,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// A web-link. ANNODA uses URLs for interactive navigation.
    Url,
    /// Raw image bytes ("gif" in the paper's list of atomic types).
    Gif,
}

impl AtomicType {
    /// The human-readable name used by the Figure-3 textual notation.
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::Int => "Integer",
            AtomicType::Real => "Real",
            AtomicType::Str => "String",
            AtomicType::Bool => "Boolean",
            AtomicType::Url => "Url",
            AtomicType::Gif => "Gif",
        }
    }

    /// Parses the Figure-3 name back into a type tag.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "Integer" => AtomicType::Int,
            "Real" => AtomicType::Real,
            "String" => AtomicType::Str,
            "Boolean" => AtomicType::Bool,
            "Url" => AtomicType::Url,
            "Gif" => AtomicType::Gif,
            _ => return None,
        })
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The type of any OEM object: one of the atomic types, or complex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OemType {
    /// An atomic object of the given value type.
    Atomic(AtomicType),
    /// A complex object (a set of object references).
    Complex,
}

impl OemType {
    /// The name used by the textual notation (`Complex` or the atomic name).
    pub fn name(self) -> &'static str {
        match self {
            OemType::Atomic(a) => a.name(),
            OemType::Complex => "Complex",
        }
    }

    /// Parses a type name as emitted by [`OemType::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        if name == "Complex" {
            Some(OemType::Complex)
        } else {
            AtomicType::from_name(name).map(OemType::Atomic)
        }
    }
}

impl fmt::Display for OemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An atomic object's value.
#[derive(Clone, PartialEq, Debug)]
pub enum AtomicValue {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Real(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A web-link used for interactive navigation.
    Url(String),
    /// Raw image bytes.
    Gif(Vec<u8>),
}

impl AtomicValue {
    /// The type tag of this value.
    pub fn atomic_type(&self) -> AtomicType {
        match self {
            AtomicValue::Int(_) => AtomicType::Int,
            AtomicValue::Real(_) => AtomicType::Real,
            AtomicValue::Str(_) => AtomicType::Str,
            AtomicValue::Bool(_) => AtomicType::Bool,
            AtomicValue::Url(_) => AtomicType::Url,
            AtomicValue::Gif(_) => AtomicType::Gif,
        }
    }

    /// Lorel-style coercion to a real number, if the value is numeric or a
    /// string spelling a number. Lorel compares across types by coercing
    /// both sides where a sensible coercion exists.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            AtomicValue::Int(i) => Some(*i as f64),
            AtomicValue::Real(r) => Some(*r),
            AtomicValue::Str(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The textual form of the value, used both by the Figure-3 notation
    /// and by string-side coercion.
    pub fn as_text(&self) -> String {
        match self {
            AtomicValue::Int(i) => i.to_string(),
            AtomicValue::Real(r) => format_real(*r),
            AtomicValue::Str(s) => s.clone(),
            AtomicValue::Bool(b) => b.to_string(),
            AtomicValue::Url(u) => u.clone(),
            AtomicValue::Gif(bytes) => format!("<gif:{}B>", bytes.len()),
        }
    }

    /// Lorel equality with coercion: values of the same type compare
    /// natively; numeric/string pairs compare after numeric coercion when
    /// the string spells a number, otherwise textually.
    pub fn lorel_eq(&self, other: &AtomicValue) -> bool {
        self.lorel_cmp(other) == Some(Ordering::Equal)
    }

    /// Lorel three-way comparison with coercion. Returns `None` when the
    /// two values are incomparable (e.g. a gif against an integer), which
    /// in Lorel semantics makes any comparison predicate silently false.
    pub fn lorel_cmp(&self, other: &AtomicValue) -> Option<Ordering> {
        use AtomicValue::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Real(a), Real(b)) => a.partial_cmp(b),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Gif(a), Gif(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Url(a), Url(b)) => Some(a.cmp(b)),
            // Url/Str interchange textually.
            (Str(a), Url(b)) | (Url(a), Str(b)) => Some(a.cmp(b)),
            // Numeric mixes coerce to real.
            (Int(_), Real(_)) | (Real(_), Int(_)) => self.as_real()?.partial_cmp(&other.as_real()?),
            // Number against string: numeric coercion if the string parses,
            // textual comparison otherwise.
            (Int(_) | Real(_), Str(s)) => match s.trim().parse::<f64>() {
                Ok(n) => self.as_real()?.partial_cmp(&n),
                Err(_) => Some(self.as_text().cmp(s)),
            },
            (Str(s), Int(_) | Real(_)) => match s.trim().parse::<f64>() {
                Ok(n) => n.partial_cmp(&other.as_real()?),
                Err(_) => Some(s.cmp(&other.as_text())),
            },
            _ => None,
        }
    }

    /// [`AtomicValue::as_text`], borrowed where the value holds its text
    /// (strings and URLs) instead of copied.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            AtomicValue::Str(s) | AtomicValue::Url(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.as_text()),
        }
    }

    /// Substring match used by Lorel's `like` operator over the value's
    /// [`AtomicValue::text`]. The pattern uses SQL wildcards: `%` matches
    /// any run, `_` a single character.
    pub fn lorel_like(&self, pattern: &str) -> bool {
        like_match(&self.text(), pattern)
    }
}

impl fmt::Display for AtomicValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_text())
    }
}

impl From<i64> for AtomicValue {
    fn from(v: i64) -> Self {
        AtomicValue::Int(v)
    }
}
impl From<f64> for AtomicValue {
    fn from(v: f64) -> Self {
        AtomicValue::Real(v)
    }
}
impl From<&str> for AtomicValue {
    fn from(v: &str) -> Self {
        AtomicValue::Str(v.to_string())
    }
}
impl From<String> for AtomicValue {
    fn from(v: String) -> Self {
        AtomicValue::Str(v)
    }
}
impl From<bool> for AtomicValue {
    fn from(v: bool) -> Self {
        AtomicValue::Bool(v)
    }
}

/// Formats a real so that integral reals keep a trailing `.0`, making the
/// textual notation round-trippable (the reader would otherwise parse
/// `2` back as an integer).
fn format_real(r: f64) -> String {
    if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
        format!("{r:.1}")
    } else {
        r.to_string()
    }
}

/// SQL-style `like` matching with `%` and `_`, case-sensitive, iterative
/// two-pointer algorithm (no recursion). When text and pattern are both
/// ASCII every byte is one character, so it walks the bytes and
/// allocates nothing; otherwise it walks char buffers, so `_` matches
/// one character, not one byte.
pub fn like_match(text: &str, pattern: &str) -> bool {
    if text.is_ascii() && pattern.is_ascii() {
        like_walk(text.as_bytes(), pattern.as_bytes(), b'%', b'_')
    } else {
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        like_walk(&t, &p, '%', '_')
    }
}

/// [`like_match`] over one unit per character; `any` and `one` are the
/// `%` and `_` wildcards in that unit.
fn like_walk<T: Copy + PartialEq>(t: &[T], p: &[T], any: T, one: T) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        // The wildcard test must come first: a literal `%` in the text
        // must not consume a `%` wildcard in the pattern.
        if pi < p.len() && p[pi] == any {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == one || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if star_p != usize::MAX {
            star_t += 1;
            ti = star_t;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == any {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_round_trip() {
        for ty in [
            AtomicType::Int,
            AtomicType::Real,
            AtomicType::Str,
            AtomicType::Bool,
            AtomicType::Url,
            AtomicType::Gif,
        ] {
            assert_eq!(AtomicType::from_name(ty.name()), Some(ty));
        }
        assert_eq!(OemType::from_name("Complex"), Some(OemType::Complex));
        assert_eq!(OemType::from_name("Nonsense"), None);
    }

    #[test]
    fn int_real_coercion_compares_numerically() {
        let a = AtomicValue::Int(2);
        let b = AtomicValue::Real(2.0);
        assert!(a.lorel_eq(&b));
        assert_eq!(
            AtomicValue::Int(3).lorel_cmp(&AtomicValue::Real(2.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn numeric_string_coerces_when_it_parses() {
        assert!(AtomicValue::Int(42).lorel_eq(&AtomicValue::Str("42".into())));
        assert!(AtomicValue::Str(" 42 ".into()).lorel_eq(&AtomicValue::Real(42.0)));
    }

    #[test]
    fn non_numeric_string_against_number_compares_textually() {
        let n = AtomicValue::Int(42);
        let s = AtomicValue::Str("forty-two".into());
        // "42" < "forty-two" lexicographically.
        assert_eq!(n.lorel_cmp(&s), Some(Ordering::Less));
    }

    #[test]
    fn url_and_string_interchange() {
        let u = AtomicValue::Url("http://x".into());
        let s = AtomicValue::Str("http://x".into());
        assert!(u.lorel_eq(&s));
    }

    #[test]
    fn gif_against_int_is_incomparable() {
        assert_eq!(
            AtomicValue::Gif(vec![1]).lorel_cmp(&AtomicValue::Int(1)),
            None
        );
    }

    #[test]
    fn real_text_round_trip_keeps_decimal_point() {
        assert_eq!(AtomicValue::Real(2.0).as_text(), "2.0");
        assert_eq!(AtomicValue::Real(2.5).as_text(), "2.5");
    }

    #[test]
    fn like_matching() {
        let v = AtomicValue::Str("tumor protein p53".into());
        assert!(v.lorel_like("%p53"));
        assert!(v.lorel_like("tumor%"));
        assert!(v.lorel_like("%protein%"));
        assert!(v.lorel_like("tumor _rotein p53"));
        assert!(!v.lorel_like("p53"));
        assert!(AtomicValue::Str(String::new()).lorel_like("%"));
        assert!(!AtomicValue::Str(String::new()).lorel_like("_"));
        // Every type matches its text; `_` is one character, not a byte.
        assert!(AtomicValue::Int(7157).lorel_like("71%"));
        assert!(AtomicValue::Real(2.0).lorel_like("2._"));
        assert!(AtomicValue::Url("http://x".into()).lorel_like("http:%"));
        assert!(AtomicValue::Str("é1".into()).lorel_like("_1"));
        assert!(!AtomicValue::Str("é1".into()).lorel_like("__1"));
    }

    proptest::proptest! {
        // Short strings over a small alphabet put a `_` against a
        // multi-byte character often enough to tell the walks apart.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The byte walk and the char walk agree wherever the byte walk
        /// is taken, and the dispatch equals the char walk everywhere.
        #[test]
        fn ascii_and_char_walks_agree(
            text in proptest::string::string_regex("[ab%_é語]{0,5}").unwrap(),
            pattern in proptest::string::string_regex("[ab%_é語]{0,4}").unwrap(),
        ) {
            let t: Vec<char> = text.chars().collect();
            let p: Vec<char> = pattern.chars().collect();
            let by_chars = like_walk(&t, &p, '%', '_');
            proptest::prop_assert_eq!(like_match(&text, &pattern), by_chars);
            if text.is_ascii() && pattern.is_ascii() {
                let by_bytes = like_walk(text.as_bytes(), pattern.as_bytes(), b'%', b'_');
                proptest::prop_assert_eq!(by_bytes, by_chars);
            }
        }
    }

    #[test]
    fn bool_ordering() {
        assert_eq!(
            AtomicValue::Bool(false).lorel_cmp(&AtomicValue::Bool(true)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn nan_real_is_incomparable() {
        assert_eq!(
            AtomicValue::Real(f64::NAN).lorel_cmp(&AtomicValue::Real(1.0)),
            None
        );
    }
}
