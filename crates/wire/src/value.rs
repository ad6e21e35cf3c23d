//! Dynamically typed values: steerable parameters, sensor readings, and
//! trader service properties all carry [`Value`]s.

use std::fmt;

use crate::codec::dbp;

dbp! {
    /// A dynamically typed value (the CORBA `Any` / Java `Object` analogue
    /// in the original system).
    #[derive(Clone, PartialEq, Debug)]
    pub enum Value {
        /// Boolean flag.
        Bool(bool),
        /// Signed integer.
        Int(i64),
        /// Double-precision float.
        Float(f64),
        /// UTF-8 text.
        Text(String),
        /// Dense vector of doubles (field slices, probe traces, ...).
        Vector(Vec<f64>),
    }
}

impl Value {
    /// Human-readable type name, used in error messages and the trader's
    /// property constraints.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Vector(_) => "vector",
        }
    }

    /// As a float if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// As an integer if the value is `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// `*self = src.clone()`, into the buffer `self` already owns when
    /// both are `Text` or both are `Vector`.
    pub fn assign(&mut self, src: &Value) {
        match (self, src) {
            (Value::Text(dst), Value::Text(src)) => dst.clone_from(src),
            (Value::Vector(dst), Value::Vector(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// `*dst = src.to_vec()`, into the vector and the strings `dst` already
/// owns. State that is overwritten again and again by a same-shaped
/// successor (an application's sensor readings, ten times a second) is
/// assigned, not reallocated: once the set of names is stable — it
/// always is — this touches the heap only for a `Text` or `Vector`
/// reading that outgrew its predecessor.
pub fn assign_readings(dst: &mut Vec<(String, Value)>, src: &[(String, Value)]) {
    dst.truncate(src.len());
    let (overwritten, appended) = src.split_at(dst.len());
    for ((name, value), (src_name, src_value)) in dst.iter_mut().zip(overwritten) {
        name.clone_from(src_name);
        value.assign(src_value);
    }
    dst.extend_from_slice(appended);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Vector(v) => write!(f, "vector[{}]", v.len()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Vector(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Int(9).as_i64(), Some(9));
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Vector(vec![1.0]).type_name(), "vector");
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Value::Int(-3)), "-3");
        assert_eq!(format!("{}", Value::Vector(vec![0.0; 5])), "vector[5]");
    }

    #[test]
    fn assigned_readings_equal_a_fresh_copy() {
        let reading = |name: &str, value: Value| (name.to_string(), value);
        let src = vec![
            reading("pressure", Value::Float(2.5)),
            reading("phase", Value::Text("a considerably longer label".into())),
            reading("trace", Value::Vector(vec![1.0, 2.0, 3.0])),
            reading("step", Value::Int(7)),
        ];
        let destinations = [
            // Longer, shorter, equal, and empty; `Text` over `Text`,
            // `Vector` over `Vector`, and either over another type.
            vec![reading("x", Value::Bool(true)); 6],
            vec![reading("a much longer name than any above", Value::Vector(vec![9.0; 8]))],
            vec![
                reading("p", Value::Text("t".into())),
                reading("phase", Value::Text("short".into())),
                reading("trace", Value::Vector(vec![0.0; 16])),
                reading("step", Value::Text("was text".into())),
            ],
            Vec::new(),
        ];
        for mut dst in destinations {
            let was = dst.clone();
            assign_readings(&mut dst, &src);
            assert_eq!(dst, src.to_vec(), "over {was:?}");
        }
        let mut dst = src.clone();
        assign_readings(&mut dst, &[]);
        assert!(dst.is_empty());
    }

    #[test]
    fn codec_roundtrip() {
        for v in [
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(0.125),
            Value::Text("steer".into()),
            Value::Vector(vec![1.0, 2.0, 3.0]),
        ] {
            let bytes = crate::codec::encode(&v);
            assert_eq!(crate::codec::decode::<Value>(&bytes).unwrap(), v);
        }
    }
}
