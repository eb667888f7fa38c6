//! Mutations of a valid SOIF encoding, for the decoder suites: an
//! attribute flipped, dropped, duplicated, cut short or given a wrong
//! byte count, and the encoding's bytes cut short or flipped.

use starts_soif::{parse, write_stream, ParseMode, SoifObject};

/// Write `objects` as a stream with attribute `target`'s byte count
/// replaced by `count` — the one framing mutation an object cannot
/// express.
pub fn with_count(objects: &[SoifObject], target: (usize, usize), count: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, o) in objects.iter().enumerate() {
        if i > 0 {
            out.push(b'\n');
        }
        out.extend_from_slice(format!("@{}{{\n", o.template).as_bytes());
        for (j, a) in o.attrs.iter().enumerate() {
            let n = a.value.len().to_string();
            let n = if (i, j) == target { count } else { &n };
            out.extend_from_slice(format!("{}{{{n}}}: ", a.name).as_bytes());
            out.extend_from_slice(&a.value);
            out.push(b'\n');
        }
        out.extend_from_slice(b"}\n");
    }
    out
}

/// The encoding cut short at byte `at`, and with one bit of that byte
/// flipped.
pub fn byte_mutations(encoded: &[u8], at: usize) -> [Vec<u8>; 2] {
    let mut flipped = encoded.to_vec();
    flipped[at % encoded.len()] ^= 1 << (at % 8);
    [encoded[..at % (encoded.len() + 1)].to_vec(), flipped]
}

/// Attribute `at` of a valid encoding (counted through the stream)
/// flipped, dropped, duplicated (as is, or followed by a shorter
/// repeat), cut short, or given a wrong byte count.
pub fn attribute_mutations(encoded: &[u8], at: usize) -> Vec<Vec<u8>> {
    let objects = parse(encoded, ParseMode::Strict).expect("a valid encoding");
    let slots: Vec<(usize, usize)> = objects
        .iter()
        .enumerate()
        .flat_map(|(i, o)| (0..o.attrs.len()).map(move |j| (i, j)))
        .collect();
    let Some(&(i, j)) = slots.get(at % slots.len().max(1)) else {
        return Vec::new();
    };
    let edited = |edit: &dyn Fn(&mut Vec<starts_soif::SoifAttr>)| {
        let mut objects = objects.clone();
        edit(&mut objects[i].attrs);
        write_stream(&objects)
    };
    let mut out = vec![
        edited(&|attrs| {
            attrs.remove(j);
        }),
        edited(&|attrs| attrs.insert(j, attrs[j].clone())),
        // A repeat that differs: which of the two a decoder reads shows.
        edited(&|attrs| {
            let mut repeat = attrs[j].clone();
            repeat.value.truncate(repeat.value.len() / 2);
            attrs.insert(j + 1, repeat);
        }),
        edited(&|attrs| {
            let value = &mut attrs[j].value;
            value.truncate(value.len() / 2);
        }),
        edited(&|attrs| {
            if let Some(b) = attrs[j].value.get_mut(at % 7) {
                *b ^= 1 << (at % 8);
            }
            attrs[j].name.make_ascii_uppercase();
        }),
    ];
    let len = objects[i].attrs[j].value.len();
    for count in [
        (len + 1).to_string(),
        len.saturating_sub(1).to_string(),
        "18446744073709551615".to_string(),
        "x".to_string(),
    ] {
        out.push(with_count(&objects, (i, j), &count));
    }
    out
}

pub fn mutations(encoded: &[u8], at: usize) -> Vec<Vec<u8>> {
    let mut out = attribute_mutations(encoded, at);
    out.extend(byte_mutations(encoded, at));
    out
}

/// Every attribute mutation of a valid encoding, and its byte mutations
/// at every third byte (a cut or flip anywhere else meets the same
/// framing rule as a neighbour), each given to `check`.
pub fn check_every_mutation(encoded: &[u8], check: impl Fn(&[u8])) {
    let objects = parse(encoded, ParseMode::Strict).expect("a valid encoding");
    let attrs: usize = objects.iter().map(|o| o.attrs.len()).sum();
    for at in 0..attrs {
        attribute_mutations(encoded, at)
            .iter()
            .for_each(|m| check(m));
    }
    for at in (0..encoded.len()).step_by(3) {
        byte_mutations(encoded, at).iter().for_each(|m| check(m));
    }
}
