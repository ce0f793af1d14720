//! Hand-rolled JSON codec for on-disk cache entries.
//!
//! The workspace's `serde` is an offline no-op stand-in (derives
//! compile but emit nothing), so — like the telemetry exporters and
//! the bench rows (`adapcc_bench::record::Row`) — the disk tier writes
//! its JSON by hand with a fixed field order, making entry files
//! byte-deterministic for identical plans. Floating-point fields (`fraction`) are stored as
//! IEEE-754 bit patterns in hex so they round-trip exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adapcc_simnet::cluster::{InstanceId, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::{PlanSeed, SubSeed};
use adapcc_synth::strategy::{Flow, Strategy, SubCollective};
use adapcc_topo::logical::{EdgeId, LogicalNode};

use crate::fingerprint::Fingerprint;
use crate::CachedPlan;

/// Serializes one cache entry (fingerprint + plan) to a JSON string.
pub fn encode_entry(fp: &Fingerprint, plan: &CachedPlan) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"v\":1,\"shape\":\"{:016x}\",\"profile\":\"{:016x}\",\"strategy\":",
        fp.shape, fp.profile
    );
    encode_strategy(&mut s, &plan.strategy);
    s.push_str(",\"seed\":");
    encode_seed(&mut s, &plan.seed);
    s.push('}');
    s
}

/// Parses a cache entry; `None` on any malformed or unknown content.
pub fn decode_entry(text: &str) -> Option<(Fingerprint, CachedPlan)> {
    let v = parse(text)?;
    let obj = v.obj()?;
    if *field(obj, "v")? != Val::Int(1) {
        return None;
    }
    let fp = Fingerprint {
        shape: u64::from_str_radix(field(obj, "shape")?.str()?, 16).ok()?,
        profile: u64::from_str_radix(field(obj, "profile")?.str()?, 16).ok()?,
    };
    let strategy = decode_strategy(field(obj, "strategy")?)?;
    let seed = decode_seed(field(obj, "seed")?)?;
    Some((fp, CachedPlan { strategy, seed }))
}

// ---- encoding ----

fn encode_strategy(s: &mut String, strategy: &Strategy) {
    let _ = write!(
        s,
        "{{\"primitive\":\"{}\",\"subs\":[",
        primitive_tag(strategy.primitive)
    );
    for (i, sub) in strategy.subs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"fraction\":\"{:016x}\",\"chunk\":{},\"root\":",
            sub.fraction.to_bits(),
            sub.chunk.as_u64()
        );
        match sub.root {
            Some(r) => {
                let _ = write!(s, "{}", r.0);
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"flows\":[");
        for (j, f) in sub.flows.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"src\":\"{}\",\"dst\":\"{}\",\"route\":[",
                node(f.src),
                node(f.dst)
            );
            for (k, e) in f.route.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", e.0);
            }
            s.push_str("]}");
        }
        s.push_str("],\"aggregate\":[");
        for (j, (n, agg)) in sub.aggregate.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "[\"{}\",{}]", node(*n), agg);
        }
        s.push_str("]}");
    }
    s.push_str("]}");
}

fn encode_seed(s: &mut String, seed: &PlanSeed) {
    s.push_str("{\"subs\":[");
    for (i, sub) in seed.subs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"leader\":");
        pairs(s, sub.leader.iter().map(|(k, v)| (k.0 as u64, v.0 as u64)));
        s.push_str(",\"parent\":");
        pairs(s, sub.parent.iter().map(|(k, v)| (k.0 as u64, v.0 as u64)));
        let _ = write!(
            s,
            ",\"root\":{},\"root_inst\":{},\"via_hub\":",
            sub.root.0, sub.root_inst.0
        );
        pairs(s, sub.via_hub.iter().map(|(k, v)| (k.0 as u64, v.0 as u64)));
        let _ = write!(
            s,
            ",\"chunk\":{},\"fraction\":\"{:016x}\"}}",
            sub.chunk.as_u64(),
            sub.fraction.to_bits()
        );
    }
    s.push_str("]}");
}

fn pairs(s: &mut String, it: impl Iterator<Item = (u64, u64)>) {
    s.push('[');
    for (i, (a, b)) in it.enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{a},{b}]");
    }
    s.push(']');
}

fn node(n: LogicalNode) -> String {
    match n {
        LogicalNode::Gpu(r) => format!("g{}", r.0),
        LogicalNode::Nic(i) => format!("n{}", i.0),
    }
}

fn primitive_tag(p: Primitive) -> &'static str {
    match p {
        Primitive::Reduce => "reduce",
        Primitive::Broadcast => "broadcast",
        Primitive::AllReduce => "allreduce",
        Primitive::AllGather => "allgather",
        Primitive::ReduceScatter => "reducescatter",
        Primitive::AllToAll => "alltoall",
    }
}

// ---- decoding ----

fn decode_strategy(v: &Val) -> Option<Strategy> {
    let obj = v.obj()?;
    let primitive = parse_primitive(field(obj, "primitive")?.str()?)?;
    let mut subs = Vec::new();
    for sv in field(obj, "subs")?.arr()? {
        let so = sv.obj()?;
        let fraction = f64::from_bits(u64::from_str_radix(field(so, "fraction")?.str()?, 16).ok()?);
        let chunk = ByteSize::from_bytes(field(so, "chunk")?.int()?);
        let root = match field(so, "root")? {
            Val::Null => None,
            Val::Int(r) => Some(Rank(usize::try_from(*r).ok()?)),
            _ => return None,
        };
        let mut flows = Vec::new();
        for fv in field(so, "flows")?.arr()? {
            let fo = fv.obj()?;
            let route = field(fo, "route")?
                .arr()?
                .iter()
                .map(|e| Some(EdgeId(usize::try_from(e.int()?).ok()?)))
                .collect::<Option<Vec<_>>>()?;
            flows.push(Flow {
                src: parse_node(field(fo, "src")?.str()?)?,
                dst: parse_node(field(fo, "dst")?.str()?)?,
                route,
            });
        }
        let mut aggregate = BTreeMap::new();
        for av in field(so, "aggregate")?.arr()? {
            let pair = av.arr()?;
            if pair.len() != 2 {
                return None;
            }
            aggregate.insert(parse_node(pair[0].str()?)?, pair[1].bool()?);
        }
        subs.push(SubCollective {
            fraction,
            chunk,
            root,
            flows,
            aggregate,
        });
    }
    Some(Strategy { primitive, subs })
}

fn decode_seed(v: &Val) -> Option<PlanSeed> {
    let obj = v.obj()?;
    let mut subs = Vec::new();
    for sv in field(obj, "subs")?.arr()? {
        let so = sv.obj()?;
        subs.push(SubSeed {
            leader: map_pairs(field(so, "leader")?, |k, v| (InstanceId(k), Rank(v)))?,
            parent: map_pairs(field(so, "parent")?, |k, v| (InstanceId(k), InstanceId(v)))?,
            root: Rank(usize::try_from(field(so, "root")?.int()?).ok()?),
            root_inst: InstanceId(usize::try_from(field(so, "root_inst")?.int()?).ok()?),
            via_hub: map_pairs(field(so, "via_hub")?, |k, v| (Rank(k), Rank(v)))?,
            chunk: ByteSize::from_bytes(field(so, "chunk")?.int()?),
            fraction: f64::from_bits(u64::from_str_radix(field(so, "fraction")?.str()?, 16).ok()?),
        });
    }
    Some(PlanSeed { subs })
}

fn map_pairs<K: Ord, V>(v: &Val, mk: impl Fn(usize, usize) -> (K, V)) -> Option<BTreeMap<K, V>> {
    let mut out = BTreeMap::new();
    for pv in v.arr()? {
        let pair = pv.arr()?;
        if pair.len() != 2 {
            return None;
        }
        let (k, val) = mk(
            usize::try_from(pair[0].int()?).ok()?,
            usize::try_from(pair[1].int()?).ok()?,
        );
        out.insert(k, val);
    }
    Some(out)
}

fn parse_node(s: &str) -> Option<LogicalNode> {
    let (tag, id) = s.split_at(1);
    let id: usize = id.parse().ok()?;
    match tag {
        "g" => Some(LogicalNode::Gpu(Rank(id))),
        "n" => Some(LogicalNode::Nic(InstanceId(id))),
        _ => None,
    }
}

fn parse_primitive(s: &str) -> Option<Primitive> {
    Some(match s {
        "reduce" => Primitive::Reduce,
        "broadcast" => Primitive::Broadcast,
        "allreduce" => Primitive::AllReduce,
        "allgather" => Primitive::AllGather,
        "reducescatter" => Primitive::ReduceScatter,
        "alltoall" => Primitive::AllToAll,
        _ => return None,
    })
}

// ---- minimal JSON reader ----
//
// Exactly the subset the encoder emits: objects, arrays,
// escape-free strings, unsigned integers, booleans and null.

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Obj(Vec<(String, Val)>),
    Arr(Vec<Val>),
    Str(String),
    Int(u64),
    Bool(bool),
    Null,
}

impl Val {
    fn obj(&self) -> Option<&[(String, Val)]> {
        match self {
            Val::Obj(v) => Some(v),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Val]> {
        match self {
            Val::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    fn int(&self) -> Option<u64> {
        match self {
            Val::Int(i) => Some(*i),
            _ => None,
        }
    }

    fn bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn field<'a>(obj: &'a [(String, Val)], name: &str) -> Option<&'a Val> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn parse(text: &str) -> Option<Val> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(v)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Val> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Val::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let Val::Str(key) = parse_value(b, pos)? else {
                    return None;
                };
                eat(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Val::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Val::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Val::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while *pos < b.len() && b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    return None; // the encoder never emits escapes
                }
                *pos += 1;
            }
            if *pos >= b.len() {
                return None;
            }
            let s = std::str::from_utf8(&b[start..*pos]).ok()?.to_string();
            *pos += 1;
            Some(Val::Str(s))
        }
        b'0'..=b'9' => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()?
                .parse()
                .ok()
                .map(Val::Int)
        }
        b't' if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Some(Val::Bool(true))
        }
        b'f' if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Some(Val::Bool(false))
        }
        b'n' if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Some(Val::Null)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Fingerprint, CachedPlan) {
        let fp = Fingerprint {
            shape: 0xdead_beef,
            profile: 0x1234_5678,
        };
        let strategy = Strategy {
            primitive: Primitive::AllReduce,
            subs: vec![SubCollective {
                fraction: 1.0 / 3.0,
                chunk: ByteSize::from_mib(1),
                root: Some(Rank(3)),
                flows: vec![Flow {
                    src: LogicalNode::Gpu(Rank(1)),
                    dst: LogicalNode::Gpu(Rank(3)),
                    route: vec![EdgeId(4), EdgeId(9)],
                }],
                aggregate: [(LogicalNode::Gpu(Rank(3)), true)].into_iter().collect(),
            }],
        };
        let seed = PlanSeed {
            subs: vec![SubSeed {
                leader: [(InstanceId(0), Rank(1))].into_iter().collect(),
                parent: [(InstanceId(0), InstanceId(0))].into_iter().collect(),
                root: Rank(3),
                root_inst: InstanceId(0),
                via_hub: [(Rank(2), Rank(5))].into_iter().collect(),
                chunk: ByteSize::from_mib(1),
                fraction: 1.0 / 3.0,
            }],
        };
        (fp, CachedPlan { strategy, seed })
    }

    #[test]
    fn roundtrips_exactly() {
        let (fp, plan) = sample();
        let text = encode_entry(&fp, &plan);
        let (fp2, plan2) = decode_entry(&text).expect("decodes");
        assert_eq!(fp, fp2);
        assert_eq!(plan, plan2);
    }

    #[test]
    fn encoding_is_deterministic() {
        let (fp, plan) = sample();
        assert_eq!(encode_entry(&fp, &plan), encode_entry(&fp, &plan));
    }

    #[test]
    fn fraction_bits_roundtrip_without_loss() {
        let (fp, mut plan) = sample();
        plan.strategy.subs[0].fraction = 0.1 + 0.2; // famously unrepresentable
        plan.seed.subs[0].fraction = f64::MIN_POSITIVE;
        let (_, plan2) = decode_entry(&encode_entry(&fp, &plan)).unwrap();
        assert_eq!(
            plan.strategy.subs[0].fraction.to_bits(),
            plan2.strategy.subs[0].fraction.to_bits()
        );
        assert_eq!(
            plan.seed.subs[0].fraction.to_bits(),
            plan2.seed.subs[0].fraction.to_bits()
        );
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(decode_entry("").is_none());
        assert!(decode_entry("{").is_none());
        assert!(decode_entry("[]").is_none());
        let (fp, plan) = sample();
        let text = encode_entry(&fp, &plan);
        assert!(decode_entry(&text[..text.len() - 1]).is_none());
        assert!(decode_entry(&format!("{text} trailing")).is_none());
    }

    #[test]
    fn rejects_unknown_version() {
        let (fp, plan) = sample();
        let text = encode_entry(&fp, &plan).replacen("\"v\":1", "\"v\":2", 1);
        assert!(decode_entry(&text).is_none());
    }
}
