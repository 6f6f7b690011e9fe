//! Helpers shared by the root test binaries.

use masim_obs::json::{parse, Value};
use masim_obs::run::{parse_json, snapshot_to_json};

/// One result-store line minus its host wall clock: the record's key,
/// and its study and sidecars as JSON with every `wall_ns` and
/// `elapsed_ns` zeroed and each sidecar reduced to its labels plus
/// `Snapshot::deterministic`.
pub fn deterministic_record(line: &str) -> (String, String) {
    let v = parse(line).expect("store line parses");
    let key = v.get("key").and_then(Value::as_str).expect("record key").to_string();
    let study = zero_wall(v.get("study").expect("record study").clone());
    let Some(Value::Arr(sidecars)) = v.get("sidecars") else { panic!("record sidecars: {line}") };
    let sidecars = sidecars
        .iter()
        .map(|sc| {
            let json = sc.get("json").and_then(Value::as_str).expect("sidecar json");
            let data = parse_json(json).expect("sidecar parses");
            let det = snapshot_to_json(&data.labels, &data.snapshot.deterministic());
            Value::Obj(vec![
                ("tool".into(), sc.get("tool").cloned().expect("sidecar tool")),
                ("json".into(), Value::Str(det)),
            ])
        })
        .collect();
    let body = Value::Obj(vec![("study".into(), study), ("sidecars".into(), Value::Arr(sidecars))]);
    (key, body.to_json())
}

fn zero_wall(v: Value) -> Value {
    let Value::Obj(fields) = v else { return v };
    let zero = |(k, v): (String, Value)| match k.as_str() {
        "wall_ns" | "elapsed_ns" => (k, Value::UInt(0)),
        _ => (k, zero_wall(v)),
    };
    Value::Obj(fields.into_iter().map(zero).collect())
}
