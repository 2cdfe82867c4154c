//! Derived readers against the value tree, on written lines whose keys
//! were edited.
//!
//! A derived `read_json` first tries each field's `"name":` as one
//! literal, in declaration order (the writer's order), and then reads
//! the rest through its general key loop. Every export line type is
//! written here, and each object in its text has its keys permuted,
//! repeated, escaped, spaced, dropped, joined by an unknown key, or
//! left without the `,` before them. The
//! direct reader must give what `from_value` over the parsed tree
//! gives: the same value, or an error where the tree has one. The error
//! text is the tree's through `serde_json::from_str`, which every
//! consumer reads through, and the direct reader's own for a missing
//! field.

use std::fmt::Debug;

use gencache_cache::{EvictionCause, TraceId};
use gencache_obs::{CacheEvent, EventRecord, FrontendOp, Region, RunMeta, StreamHeader};
use gencache_program::Time;
use serde::{Deserialize, JsonReader, Serialize, Value};

/// One of every event variant, every field set.
fn every_variant() -> Vec<CacheEvent> {
    let (trace, time) = (TraceId::new(42), Time::from_micros(1_000_007));
    vec![
        CacheEvent::Insert {
            region: Region::Nursery,
            trace,
            bytes: 242,
            used: 4096,
            time,
        },
        CacheEvent::Hit {
            region: Region::Unified,
            trace,
            reuse_us: 3,
            time,
        },
        CacheEvent::Miss {
            trace,
            bytes: 7,
            time,
        },
        CacheEvent::Evict {
            region: Region::Probation,
            trace,
            bytes: 1,
            cause: EvictionCause::Discarded,
            age_us: u64::MAX,
            idle_us: 3,
            time,
        },
        CacheEvent::Promote {
            from: Region::Probation,
            to: Region::Persistent,
            trace,
            bytes: 9,
            time,
        },
        CacheEvent::PromotedIn {
            region: Region::Persistent,
            trace,
            bytes: 9,
            used: 18,
            time,
        },
        CacheEvent::Pin {
            region: Region::Nursery,
            trace,
            time,
        },
        CacheEvent::Unpin {
            region: Region::Nursery,
            trace,
            time,
        },
        CacheEvent::Noop {
            op: FrontendOp::Unmap,
            trace,
            time,
        },
        CacheEvent::PointerReset {
            region: Region::Unified,
            resets: 2,
            time,
        },
        CacheEvent::PolicySwap {
            epoch: 17,
            from: 0,
            to: 255,
            time,
        },
    ]
}

/// What the direct reader gives on `text`, and what the tree gives.
fn both_ways<T: Deserialize + Debug>(text: &str) -> (Result<T, String>, Result<T, String>) {
    let mut r = JsonReader::new(text);
    let direct = T::read_json(&mut r)
        .and_then(|v| r.finish().map(|()| v))
        .map_err(|e| e.to_string());
    let tree = serde_json::value_from_str(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    (direct, tree)
}

/// Asserts the direct reader agrees with the tree on `text`, and
/// returns whether the tree accepted it.
#[track_caller]
fn agrees<T: Deserialize + Debug>(text: &str) -> bool {
    let (direct, tree) = both_ways::<T>(text);
    match &tree {
        Ok(_) => assert_eq!(format!("{direct:?}"), format!("{tree:?}"), "{text}"),
        Err(want) => {
            assert!(direct.is_err(), "{text}: direct {direct:?}, tree {tree:?}");
            // A missing field is reported by name, in declaration order,
            // both ways; other direct errors name the byte instead, and
            // callers get the tree's text through `from_str`.
            if want.starts_with("missing field") {
                assert_eq!(direct.as_ref().err(), Some(want), "{text}");
            }
            let via = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
            assert_eq!(via.as_ref().err(), Some(want), "{text}");
        }
    }
    tree.is_ok()
}

/// Where each object of `v` sits: the entry indices leading to it.
fn object_paths(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if let Value::Object(pairs) = v {
        out.push(at.clone());
        for (i, (_, child)) in pairs.iter().enumerate() {
            at.push(i);
            object_paths(child, at, out);
            at.pop();
        }
    }
}

fn object_at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Entries {
    let Value::Object(pairs) = v else {
        panic!("not an object")
    };
    match path.split_first() {
        None => pairs,
        Some((&i, rest)) => object_at(&mut pairs[i].1, rest),
    }
}

type Entries = Vec<(String, Value)>;

/// Every edit tried on an object's entries.
fn edits(pairs: &[(String, Value)]) -> Vec<Entries> {
    let n = pairs.len();
    let edited = |f: &dyn Fn(&mut Entries)| {
        let mut p = pairs.to_vec();
        f(&mut p);
        p
    };
    let mut out = vec![edited(&|p| p.reverse())];
    for k in 1..n {
        out.push(edited(&|p| p.rotate_left(k)));
    }
    let nested = Value::Object(vec![("x".into(), Value::Array(vec![Value::Bool(true)]))]);
    for (i, entry) in pairs.iter().enumerate() {
        let key = entry.0.clone();
        if i + 1 < n {
            out.push(edited(&|p| p.swap(i, i + 1)));
        }
        out.push(edited(&|p| drop(p.remove(i))));
        // Repeated right after itself, with its own value and with a
        // value of another shape: the first occurrence wins.
        out.push(edited(&|p| p.insert(i + 1, entry.clone())));
        out.push(edited(&|p| p.insert(i + 1, (key.clone(), nested.clone()))));
        // Repeated first, with a value of another shape, which then wins.
        out.push(edited(&|p| {
            p.insert(0, (key.clone(), Value::Str("dup".into())))
        }));
        // An unknown key before the entry.
        out.push(edited(&|p| {
            p.insert(i, ("unknown".into(), Value::Array(vec![Value::Null])))
        }));
    }
    out
}

/// The text of `v` with the first `"key":` written with its first
/// character escaped.
fn escape_key(text: &str, key: &str) -> String {
    let mut chars = key.chars();
    let first = chars.next().expect("a non-empty key");
    let escaped = format!("\"\\u{:04x}{}\":", u32::from(first), chars.as_str());
    text.replacen(&format!("\"{key}\":"), &escaped, 1)
}

/// Spaces every separator of compact text whose strings hold no `,` or
/// `:`.
fn spaced(text: &str) -> String {
    text.replace(",\"", " , \"")
        .replace("\":", "\" : ")
        .replace('{', "{ ")
}

/// Writes `value`, edits every object of its text every way, and checks
/// each result both ways. Returns how many edited texts the tree
/// accepted, and how many it refused.
fn check_edits<T: Serialize + Deserialize + Debug + PartialEq>(value: &T) -> (usize, usize) {
    let line = serde_json::to_string(value).unwrap();
    let mut counts = (0, 0);
    let mut tally = |ok: bool| {
        if ok {
            counts.0 += 1
        } else {
            counts.1 += 1
        }
    };
    // The written line and its spaced form read back as the value.
    for text in [line.clone(), spaced(&line), format!(" {line} ")] {
        assert_eq!(both_ways::<T>(&text).0.as_ref(), Ok(value), "{text}");
        tally(agrees::<T>(&text));
    }
    let tree = serde_json::value_from_str(&line).unwrap();
    let mut paths = Vec::new();
    object_paths(&tree, &mut Vec::new(), &mut paths);
    for path in &paths {
        let pairs = object_at(&mut tree.clone(), path).clone();
        for (key, _) in &pairs {
            tally(agrees::<T>(&escape_key(&line, key)));
            // The key with the `,` before it missing.
            let joined = line.replacen(&format!(",\"{key}\":"), &format!("\"{key}\":"), 1);
            tally(agrees::<T>(&joined));
        }
        for entries in edits(&pairs) {
            let mut edited = tree.clone();
            *object_at(&mut edited, path) = entries;
            let text = serde_json::to_string(&edited).unwrap();
            tally(agrees::<T>(&text));
            tally(agrees::<T>(&spaced(&text)));
            if let Some((key, _)) = object_at(&mut edited, path).first() {
                tally(agrees::<T>(&escape_key(&text, &key.clone())));
            }
        }
    }
    counts
}

#[test]
fn derived_readers_match_the_tree_on_edited_keys() {
    let mut counts = (0, 0);
    let mut add = |(ok, refused): (usize, usize)| {
        counts.0 += ok;
        counts.1 += refused;
    };
    for event in every_variant() {
        add(check_edits(&event));
        add(check_edits(&EventRecord {
            source: "word".into(),
            model: "45-10-45@hit1".into(),
            event,
        }));
    }
    add(check_edits(&RunMeta {
        source: "word".into(),
        model: "unified".into(),
        duration_us: 1_000_000,
        peak_trace_bytes: 4096,
        phases: 3,
    }));
    add(check_edits(&StreamHeader::current()));
    // Both outcomes were reached, many times over.
    assert!(counts.0 > 1000 && counts.1 > 500, "{counts:?}");
}

#[test]
fn escaped_keys_read_as_plain_ones() {
    // The literal step matches no escaped key; the general loop reads it.
    let text = r#"{"region":"Unified","tr\u0061ce":42,"reuse_us":3,"time":1000007}"#;
    let (direct, tree) = both_ways::<CacheEvent>(&format!(r#"{{"Hit":{text}}}"#));
    assert_eq!(direct, tree);
    assert_eq!(
        direct,
        Ok(CacheEvent::Hit {
            region: Region::Unified,
            trace: TraceId::new(42),
            reuse_us: 3,
            time: Time::from_micros(1_000_007),
        })
    );
}
