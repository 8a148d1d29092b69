//! Hand-rolled on-disk format for the tier-1 histogram store.
//!
//! The vendored `serde` is a marker-trait stub (nothing serializes), so
//! persistence is an explicit little-endian byte format:
//!
//! ```text
//! magic    8 bytes   b"QCUTWSC\0"
//! version  u16       1
//! entries  u32       entry count
//! entry*             key (3 x u64) | circuit | counts
//! checksum u64       FNV-1a over every preceding byte
//! ```
//!
//! A circuit encodes as `num_qubits: u16, n: u32` then per instruction a
//! gate tag byte, the gate's `f64` parameters as IEEE-754 bit patterns
//! (bit-exact round trip), and `u16` qubit operands. Counts encode as
//! `num_bits: u16, distinct: u32` then `(outcome, count)` pairs of `u64`.
//! Entries are written in least- to most-recently-used order so a reload
//! replays the same LRU ranking.
//!
//! Decoding is corruption-tolerant by construction: every read is
//! bounds-checked, every field is validated (gate tags, circuits through
//! [`Circuit::from_instructions`], histogram width against the circuit's,
//! outcome widths, count overflow), and any failure surfaces as a typed
//! [`CacheFileError`] — the caller degrades to a cold start, never a
//! panic. Only canonical files decode: outcomes strictly increasing,
//! counts nonzero, no entry repeated. So every file that loads under a
//! budget holding all of it re-encodes to the same bytes.

use qcut_circuit::circuit::{Circuit, Instruction};
use qcut_circuit::gate::Gate;
use qcut_math::complex::{c64, Complex};
use qcut_math::matrix::Matrix;
use qcut_sim::counts::Counts;

use crate::histogram::HistogramCache;
use crate::CacheKey;

/// The 8-byte file magic every cache file starts with.
pub(crate) const MAGIC: &[u8; 8] = b"QCUTWSC\0";
/// The format version this build writes and accepts.
pub(crate) const VERSION: u16 = 1;

/// Why a cache file could not be loaded. Every variant degrades to a cold
/// start at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheFileError {
    /// Filesystem-level failure (read/write/rename).
    Io(String),
    /// The file does not start with the cache magic.
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion(u16),
    /// The file ends before its declared content does.
    Truncated,
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// Structurally invalid content (bad gate tag, qubit out of range,
    /// overflowing counts, trailing garbage, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheFileError::Io(e) => write!(f, "io error: {e}"),
            CacheFileError::BadMagic => write!(f, "not a qcut cache file (bad magic)"),
            CacheFileError::UnsupportedVersion(v) => write!(f, "unsupported cache version {v}"),
            CacheFileError::Truncated => write!(f, "truncated cache file"),
            CacheFileError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt file)"),
            CacheFileError::Malformed(what) => write!(f, "malformed cache file: {what}"),
        }
    }
}

impl std::error::Error for CacheFileError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Numeric tag for each gate variant. Stable across versions: new gates
/// must append, never renumber.
fn gate_tag(gate: &Gate) -> u8 {
    match gate {
        Gate::I => 0,
        Gate::H => 1,
        Gate::X => 2,
        Gate::Y => 3,
        Gate::Z => 4,
        Gate::S => 5,
        Gate::Sdg => 6,
        Gate::T => 7,
        Gate::Tdg => 8,
        Gate::Sx => 9,
        Gate::Rx(_) => 10,
        Gate::Ry(_) => 11,
        Gate::Rz(_) => 12,
        Gate::Phase(_) => 13,
        Gate::U3(..) => 14,
        Gate::Unitary1(_) => 15,
        Gate::Cx => 16,
        Gate::Cy => 17,
        Gate::Cz => 18,
        Gate::Ch => 19,
        Gate::Swap => 20,
        Gate::Crx(_) => 21,
        Gate::Cry(_) => 22,
        Gate::Crz(_) => 23,
        Gate::CPhase(_) => 24,
        Gate::Unitary2(_) => 25,
    }
}

/// Encoded length of one instruction: tag + parameters + operands.
fn instruction_encoded_len(inst: &Instruction) -> u64 {
    let params: u64 = match &inst.gate {
        Gate::Rx(_)
        | Gate::Ry(_)
        | Gate::Rz(_)
        | Gate::Phase(_)
        | Gate::Crx(_)
        | Gate::Cry(_)
        | Gate::Crz(_)
        | Gate::CPhase(_) => 8,
        Gate::U3(..) => 24,
        Gate::Unitary1(_) => 4 * 16,
        Gate::Unitary2(_) => 16 * 16,
        _ => 0,
    };
    1 + params + 2 * inst.qubits.len() as u64
}

/// Exact encoded length of one cache entry holding `distinct` outcome
/// pairs — the byte-accounting unit shared with the in-memory store.
pub fn entry_encoded_len(circuit: &Circuit, distinct: u64) -> u64 {
    let circuit_len: u64 = 2
        + 4
        + circuit
            .instructions()
            .iter()
            .map(instruction_encoded_len)
            .sum::<u64>();
    24 + circuit_len + 2 + 4 + 16 * distinct
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    for z in m.as_slice() {
        push_f64(out, z.re);
        push_f64(out, z.im);
    }
}

fn push_instruction(out: &mut Vec<u8>, inst: &Instruction) {
    out.push(gate_tag(&inst.gate));
    match &inst.gate {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => push_f64(out, *t),
        Gate::Crx(t) | Gate::Cry(t) | Gate::Crz(t) | Gate::CPhase(t) => push_f64(out, *t),
        Gate::U3(a, b, c) => {
            push_f64(out, *a);
            push_f64(out, *b);
            push_f64(out, *c);
        }
        Gate::Unitary1(m) | Gate::Unitary2(m) => push_matrix(out, m),
        _ => {}
    }
    for &q in &inst.qubits {
        push_u16(out, q as u16);
    }
}

/// Serializes a store. Infallible: the store only holds values this module
/// can encode.
pub(crate) fn encode(store: &HistogramCache) -> Vec<u8> {
    let slots = store.slots_by_recency();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_u16(&mut out, VERSION);
    push_u32(&mut out, slots.len() as u32);
    for (key, slot) in slots {
        push_u64(&mut out, key.structural_hash);
        push_u64(&mut out, key.backend_fingerprint);
        push_u64(&mut out, key.discipline);
        let circuit = &slot.circuit;
        push_u16(&mut out, circuit.num_qubits() as u16);
        push_u32(&mut out, circuit.len() as u32);
        for inst in circuit.instructions() {
            push_instruction(&mut out, inst);
        }
        push_u16(&mut out, slot.counts.num_bits() as u16);
        push_u32(&mut out, slot.counts.iter().count() as u32);
        let mut pairs: Vec<(u64, u64)> = slot.counts.iter().collect();
        pairs.sort_unstable();
        for (outcome, count) in pairs {
            push_u64(&mut out, outcome);
            push_u64(&mut out, count);
        }
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CacheFileError> {
        let end = self.pos.checked_add(n).ok_or(CacheFileError::Truncated)?;
        if end > self.buf.len() {
            return Err(CacheFileError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CacheFileError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CacheFileError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CacheFileError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CacheFileError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, CacheFileError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn read_matrix(r: &mut Reader<'_>, dim: usize) -> Result<Matrix, CacheFileError> {
    let mut data: Vec<Complex> = Vec::with_capacity(dim * dim);
    for _ in 0..dim * dim {
        let re = r.f64()?;
        let im = r.f64()?;
        data.push(c64(re, im));
    }
    Ok(Matrix::from_rows(dim, dim, data))
}

fn read_gate(r: &mut Reader<'_>) -> Result<Gate, CacheFileError> {
    Ok(match r.u8()? {
        0 => Gate::I,
        1 => Gate::H,
        2 => Gate::X,
        3 => Gate::Y,
        4 => Gate::Z,
        5 => Gate::S,
        6 => Gate::Sdg,
        7 => Gate::T,
        8 => Gate::Tdg,
        9 => Gate::Sx,
        10 => Gate::Rx(r.f64()?),
        11 => Gate::Ry(r.f64()?),
        12 => Gate::Rz(r.f64()?),
        13 => Gate::Phase(r.f64()?),
        14 => Gate::U3(r.f64()?, r.f64()?, r.f64()?),
        15 => Gate::Unitary1(read_matrix(r, 2)?),
        16 => Gate::Cx,
        17 => Gate::Cy,
        18 => Gate::Cz,
        19 => Gate::Ch,
        20 => Gate::Swap,
        21 => Gate::Crx(r.f64()?),
        22 => Gate::Cry(r.f64()?),
        23 => Gate::Crz(r.f64()?),
        24 => Gate::CPhase(r.f64()?),
        25 => Gate::Unitary2(read_matrix(r, 4)?),
        _ => return Err(CacheFileError::Malformed("unknown gate tag")),
    })
}

fn read_circuit(r: &mut Reader<'_>) -> Result<Circuit, CacheFileError> {
    let num_qubits = r.u16()? as usize;
    if num_qubits == 0 || num_qubits > 64 {
        return Err(CacheFileError::Malformed("circuit width out of range"));
    }
    let n = r.u32()? as usize;
    let mut instructions = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let gate = read_gate(r)?;
        let qubits = (0..gate.arity())
            .map(|_| r.u16().map(usize::from))
            .collect::<Result<_, _>>()?;
        instructions.push(Instruction { gate, qubits });
    }
    Circuit::from_instructions(num_qubits, instructions)
        .map_err(|_| CacheFileError::Malformed("malformed instruction"))
}

/// Reads the histogram of a circuit `width` qubits wide. Outcomes must be
/// strictly increasing with nonzero counts — the only form [`encode`]
/// writes — so every accepted record re-encodes to the same bytes.
fn read_counts(r: &mut Reader<'_>, width: usize) -> Result<Counts, CacheFileError> {
    let num_bits = r.u16()? as usize;
    if num_bits == 0 || num_bits > 63 {
        return Err(CacheFileError::Malformed("histogram width out of range"));
    }
    if num_bits != width {
        return Err(CacheFileError::Malformed(
            "histogram width does not match its circuit",
        ));
    }
    let distinct = r.u32()?;
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity((distinct as usize).min(65536));
    let mut total: u64 = 0;
    for _ in 0..distinct {
        let outcome = r.u64()?;
        let count = r.u64()?;
        if outcome >> num_bits != 0 {
            return Err(CacheFileError::Malformed("outcome exceeds histogram width"));
        }
        if pairs.last().is_some_and(|&(prev, _)| outcome <= prev) {
            return Err(CacheFileError::Malformed(
                "outcomes not strictly increasing",
            ));
        }
        if count == 0 {
            return Err(CacheFileError::Malformed("zero count"));
        }
        total = total
            .checked_add(count)
            .ok_or(CacheFileError::Malformed("histogram total overflows"))?;
        pairs.push((outcome, count));
    }
    Ok(Counts::from_pairs(num_bits, pairs))
}

/// Parses a cache file image into a store with the given byte budget
/// (which may evict entries a smaller budget no longer affords — oldest
/// first, since entries are stored in recency order).
///
/// The header is checked before the checksum, so a foreign file is
/// [`CacheFileError::BadMagic`] and a file of another format version is
/// [`CacheFileError::UnsupportedVersion`], whatever their trailers hold.
/// A file too short to show either is [`CacheFileError::Truncated`].
pub fn decode(bytes: &[u8], byte_budget: u64) -> Result<HistogramCache, CacheFileError> {
    let magic = &bytes[..bytes.len().min(MAGIC.len())];
    if magic != &MAGIC[..magic.len()] {
        return Err(CacheFileError::BadMagic);
    }
    if let Some(&[lo, hi]) = bytes.get(MAGIC.len()..MAGIC.len() + 2) {
        let version = u16::from_le_bytes([lo, hi]);
        if version != VERSION {
            return Err(CacheFileError::UnsupportedVersion(version));
        }
    }
    if bytes.len() < MAGIC.len() + 2 + 4 + 8 {
        return Err(CacheFileError::Truncated);
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    if fnv1a(content) != declared {
        return Err(CacheFileError::ChecksumMismatch);
    }
    let mut r = Reader {
        buf: content,
        pos: MAGIC.len() + 2,
    };
    let count = r.u32()?;
    let mut store = HistogramCache::new(byte_budget);
    for _ in 0..count {
        let key = CacheKey {
            structural_hash: r.u64()?,
            backend_fingerprint: r.u64()?,
            discipline: r.u64()?,
        };
        let circuit = read_circuit(&mut r)?;
        let counts = read_counts(&mut r, circuit.num_qubits())?;
        if key.structural_hash != circuit.structural_hash() {
            return Err(CacheFileError::Malformed("key does not match its circuit"));
        }
        // Caught while the first copy is held: a budget that already
        // evicted it loads the repeat as a fresh entry.
        if store.holds(&key, &circuit) {
            return Err(CacheFileError::Malformed("duplicate entry"));
        }
        store.store(&key, &circuit, counts);
    }
    if r.pos != content.len() {
        return Err(CacheFileError::Malformed("trailing bytes after entries"));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShotDiscipline;

    fn sample_store() -> HistogramCache {
        let mut store = HistogramCache::new(u64::MAX);
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).ry(0.25, 2);
        a.push(Gate::U3(0.1, 0.2, 0.3), &[1]);
        a.push(Gate::CPhase(0.5), &[1, 2]);
        let mut b = Circuit::new(2);
        b.sdg(0).h(0).swap(0, 1);
        let ka = CacheKey::new(a.structural_hash(), 11, ShotDiscipline::Multinomial);
        let kb = CacheKey::new(b.structural_hash(), 11, ShotDiscipline::Multinomial);
        store.store(&ka, &a, Counts::from_pairs(3, [(0u64, 5), (6, 2), (7, 1)]));
        store.store(&kb, &b, Counts::from_pairs(2, [(1u64, 9), (2, 3)]));
        store
    }

    #[test]
    fn round_trip_preserves_entries_and_recency() {
        let store = sample_store();
        let bytes = encode(&store);
        let reloaded = decode(&bytes, u64::MAX).expect("clean file loads");
        assert_eq!(reloaded.len(), store.len());
        assert_eq!(reloaded.bytes_used(), store.bytes_used());
        let again = encode(&reloaded);
        assert_eq!(bytes, again, "encode is a fixed point through reload");
    }

    #[test]
    fn truncated_file_is_rejected_without_panic() {
        let bytes = encode(&sample_store());
        for cut in [0, 5, 13, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut], u64::MAX).expect_err("truncation detected");
            assert!(
                matches!(
                    err,
                    CacheFileError::Truncated | CacheFileError::ChecksumMismatch
                ),
                "unexpected error {err:?} at cut {cut}"
            );
        }
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let mut bytes = encode(&sample_store());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            decode(&bytes, u64::MAX).expect_err("corruption detected"),
            CacheFileError::ChecksumMismatch
        );
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let mut bytes = encode(&sample_store());
        bytes[0] = b'X';
        let tail = bytes.len() - 8;
        let sum = fnv1a(&bytes[..tail]).to_le_bytes();
        bytes[tail..].copy_from_slice(&sum);
        assert_eq!(
            decode(&bytes, u64::MAX).expect_err("magic checked"),
            CacheFileError::BadMagic
        );

        let mut bytes = encode(&sample_store());
        bytes[8] = 0xff; // version low byte
        let sum = fnv1a(&bytes[..tail]).to_le_bytes();
        bytes[tail..].copy_from_slice(&sum);
        assert!(matches!(
            decode(&bytes, u64::MAX).expect_err("version checked"),
            CacheFileError::UnsupportedVersion(_)
        ));
    }

    /// The header names a foreign or other-version file before the
    /// checksum is read, so the error says what the file is.
    #[test]
    fn header_errors_take_precedence_over_the_checksum() {
        for foreign in [&b"definitely not a cache file"[..], b"PNG", b"QCUTWSC\x01"] {
            assert_eq!(
                decode(foreign, u64::MAX).err(),
                Some(CacheFileError::BadMagic)
            );
        }
        let mut bytes = encode(&sample_store());
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(
            decode(&bytes, u64::MAX).err(),
            Some(CacheFileError::UnsupportedVersion(2))
        );
        assert_eq!(
            decode(&bytes[..10], u64::MAX).err(),
            Some(CacheFileError::UnsupportedVersion(2))
        );
        // A valid header too short for a checksum is truncated.
        assert_eq!(
            decode(&encode(&sample_store())[..12], u64::MAX).err(),
            Some(CacheFileError::Truncated)
        );
    }

    #[test]
    fn decode_applies_the_byte_budget_evicting_oldest_first() {
        let store = sample_store();
        let bytes = encode(&store);
        // Budget for roughly one entry: the older of the two must go.
        let reloaded = decode(&bytes, store.bytes_used() - 1).expect("loads");
        assert_eq!(reloaded.len(), 1);
    }

    /// A record as the tests spell it: key, circuit, histogram width and
    /// `(outcome, count)` pairs in file order.
    type RawEntry<'a> = (CacheKey, &'a Circuit, u16, &'a [(u64, u64)]);

    /// Hand-assembles a file image, so records `encode` never writes can
    /// be fed to the decoder.
    fn image(entries: &[RawEntry<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        push_u16(&mut out, VERSION);
        push_u32(&mut out, entries.len() as u32);
        for &(key, circuit, num_bits, pairs) in entries {
            push_u64(&mut out, key.structural_hash);
            push_u64(&mut out, key.backend_fingerprint);
            push_u64(&mut out, key.discipline);
            push_u16(&mut out, circuit.num_qubits() as u16);
            push_u32(&mut out, circuit.len() as u32);
            for inst in circuit.instructions() {
                push_instruction(&mut out, inst);
            }
            push_u16(&mut out, num_bits);
            push_u32(&mut out, pairs.len() as u32);
            for &(outcome, count) in pairs {
                push_u64(&mut out, outcome);
                push_u64(&mut out, count);
            }
        }
        with_checksum(out)
    }

    /// Appends the FNV-1a trailer to `content`.
    fn with_checksum(mut content: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&content);
        push_u64(&mut content, sum);
        content
    }

    /// The fuzz property: `decode` returns (it never panics), and any
    /// store it accepts re-encodes to exactly the input bytes.
    fn assert_decodes_only_fixed_points(bytes: &[u8]) {
        if let Ok(store) = decode(bytes, u64::MAX) {
            assert_eq!(encode(&store), bytes, "an accepted file is canonical");
        }
    }

    fn two_qubit_circuit() -> (CacheKey, Circuit) {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let key = CacheKey::new(c.structural_hash(), 11, ShotDiscipline::Multinomial);
        (key, c)
    }

    #[test]
    fn hand_assembled_canonical_image_matches_encode() {
        let (key, c) = two_qubit_circuit();
        let bytes = image(&[(key, &c, 2, &[(0, 4), (3, 6)])]);
        let store = decode(&bytes, u64::MAX).expect("canonical image loads");
        assert_eq!(encode(&store), bytes);
    }

    #[test]
    fn histogram_width_must_match_its_circuit() {
        let (key, c) = two_qubit_circuit();
        for num_bits in [1, 3] {
            assert_eq!(
                decode(&image(&[(key, &c, num_bits, &[(0, 4)])]), u64::MAX).err(),
                Some(CacheFileError::Malformed(
                    "histogram width does not match its circuit"
                ))
            );
        }
    }

    #[test]
    fn non_canonical_records_are_malformed() {
        let (key, c) = two_qubit_circuit();
        let unsorted = image(&[(key, &c, 2, &[(3, 6), (0, 4)])]);
        let repeated = image(&[(key, &c, 2, &[(1, 2), (1, 2)])]);
        let zero = image(&[(key, &c, 2, &[(0, 4), (1, 0)])]);
        let duplicate = image(&[(key, &c, 2, &[(0, 4)]), (key, &c, 2, &[(1, 4)])]);
        for (bytes, what) in [
            (unsorted, "outcomes not strictly increasing"),
            (repeated, "outcomes not strictly increasing"),
            (zero, "zero count"),
            (duplicate, "duplicate entry"),
        ] {
            assert_eq!(
                decode(&bytes, u64::MAX).err(),
                Some(CacheFileError::Malformed(what))
            );
        }
    }

    #[test]
    fn malformed_operands_are_malformed_and_open_cold() {
        let (key, c) = two_qubit_circuit();
        let valid = image(&[(key, &c, 2, &[(0, 4)])]);
        // Magic, version, entry count, key, width, instruction count and
        // `h`'s tag byte come before `h`'s operand; `cx`'s tag byte sits
        // between it and `cx`'s two operands.
        let h_operand = 8 + 2 + 4 + 24 + 2 + 4 + 1;
        let cx_operands = h_operand + 2 + 1;
        let content = &valid[..valid.len() - 8];
        assert_eq!(&content[cx_operands..cx_operands + 4], &[0, 0, 1, 0]);
        let with_byte = |at: usize, byte: u8| {
            let mut mutated = content.to_vec();
            mutated[at] = byte;
            with_checksum(mutated)
        };
        // `h` on qubit 2 of 2, and `cx` on qubits [0, 0].
        let out_of_range = with_byte(h_operand, 2);
        let duplicated = with_byte(cx_operands + 2, 0);
        for (i, bytes) in [out_of_range, duplicated].into_iter().enumerate() {
            assert_eq!(
                decode(&bytes, u64::MAX).err(),
                Some(CacheFileError::Malformed("malformed instruction"))
            );
            let path = std::env::temp_dir().join(format!(
                "qcut-cache-test-malformed-{i}-{}.qwc",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).expect("write the test image");
            let cache = crate::WarmCache::open(crate::CacheConfig::at_path(&path));
            std::fs::remove_file(&path).ok();
            assert_eq!(cache.entries(), 0);
            let notice = cache.take_degradation().expect("a degradation notice");
            assert!(notice.contains("malformed instruction"), "{notice}");
        }
    }

    #[test]
    fn every_truncation_of_a_valid_image_decodes_only_fixed_points() {
        let bytes = encode(&sample_store());
        let content = &bytes[..bytes.len() - 8];
        for cut in 0..bytes.len() {
            assert_decodes_only_fixed_points(&bytes[..cut]);
        }
        // With the trailer recomputed the parser itself meets every cut.
        for cut in 0..content.len() {
            assert_decodes_only_fixed_points(&with_checksum(content[..cut].to_vec()));
        }
    }

    /// Every single-byte mutation of a valid image, with the checksum
    /// recomputed so the parser rather than the trailer meets it.
    #[test]
    fn every_single_byte_mutation_decodes_only_fixed_points() {
        let bytes = encode(&sample_store());
        let content = &bytes[..bytes.len() - 8];
        for at in 0..content.len() {
            for byte in 0..=u8::MAX {
                let mut mutated = content.to_vec();
                mutated[at] = byte;
                assert_decodes_only_fixed_points(&with_checksum(mutated));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, arbitrary content behind a valid header, and
        /// two-byte mutations of a valid image (checksum recomputed) never
        /// panic the decoder, and whatever it accepts re-encodes to the
        /// same bytes.
        #[test]
        fn decode_never_panics_and_accepts_only_canonical_files(
            noise in proptest::collection::vec(0u16..256, 0..160),
            edits in ((0usize..4096, 0u16..256), (0usize..4096, 0u16..256)),
        ) {
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            assert_decodes_only_fixed_points(&noise);

            let mut headed = MAGIC.to_vec();
            push_u16(&mut headed, VERSION);
            headed.extend_from_slice(&noise);
            assert_decodes_only_fixed_points(&with_checksum(headed));

            let bytes = encode(&sample_store());
            let mut content = bytes[..bytes.len() - 8].to_vec();
            let len = content.len();
            for (at, byte) in [edits.0, edits.1] {
                content[at % len] = byte as u8;
            }
            assert_decodes_only_fixed_points(&with_checksum(content));
        }
    }
}
