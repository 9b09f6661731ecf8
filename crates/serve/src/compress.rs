//! Streaming DEFLATE compression for export bodies (RFC 1951), with gzip
//! (RFC 1952) and zlib (RFC 1950) framings — zero external dependencies.
//!
//! The encoder emits *fixed-Huffman* blocks over a greedy LZ77 matcher
//! (hash-chained 3-byte prefixes, 258-byte max match). Input accumulates in
//! a bounded [`BLOCK_BYTES`] buffer; each full buffer is compressed and
//! flushed as one block, so memory stays constant no matter how large the
//! streamed body is — the same bounded-memory contract as
//! [`crate::http::ChunkedWriter`], which these encoders are designed to
//! wrap. CSV/JSONL exports are highly repetitive, so fixed-Huffman + LZ77
//! typically shrinks them 3–6×.
//!
//! [`inflate`] decodes the full RFC 1951 block repertoire — stored,
//! fixed-Huffman, and dynamic-Huffman — so compressed *request* bodies
//! from any standards-conforming tool (`gzip`, zlib, browsers) decode,
//! and [`gunzip`] skips the optional RFC 1952 header fields (FNAME,
//! FEXTRA, FCOMMENT, FHCRC) real gzip tools emit. Real gzip tools decode
//! our output in turn because the encoder only emits spec-compliant
//! blocks.

use sam_fault::Crc32;
use std::io::Write;

/// Input buffered per DEFLATE block (also the LZ77 match window, since the
/// matcher never looks across a block boundary).
pub const BLOCK_BYTES: usize = 64 << 10;

/// Longest match DEFLATE can encode.
const MAX_MATCH: usize = 258;
/// Shortest match worth encoding.
const MIN_MATCH: usize = 3;
/// Hash-chain probes per position (compression effort knob).
const MAX_CHAIN: usize = 48;
/// Farthest back a match may refer (DEFLATE window size). Blocks are
/// 64 KiB, so the matcher must cut chains that reach past this.
const MAX_DIST: usize = 32 << 10;
/// 3-byte prefix hash table size (power of two).
const HASH_SIZE: usize = 1 << 15;

/// `(extra_bits, base_length)` for length codes 257..=285.
const LENGTH_TABLE: [(u32, u16); 29] = [
    (0, 3),
    (0, 4),
    (0, 5),
    (0, 6),
    (0, 7),
    (0, 8),
    (0, 9),
    (0, 10),
    (1, 11),
    (1, 13),
    (1, 15),
    (1, 17),
    (2, 19),
    (2, 23),
    (2, 27),
    (2, 31),
    (3, 35),
    (3, 43),
    (3, 51),
    (3, 59),
    (4, 67),
    (4, 83),
    (4, 99),
    (4, 115),
    (5, 131),
    (5, 163),
    (5, 195),
    (5, 227),
    (0, 258),
];

/// `(extra_bits, base_distance)` for distance codes 0..=29.
const DIST_TABLE: [(u32, u16); 30] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 5),
    (1, 7),
    (2, 9),
    (2, 13),
    (3, 17),
    (3, 25),
    (4, 33),
    (4, 49),
    (5, 65),
    (5, 97),
    (6, 129),
    (6, 193),
    (7, 257),
    (7, 385),
    (8, 513),
    (8, 769),
    (9, 1025),
    (9, 1537),
    (10, 2049),
    (10, 3073),
    (11, 4097),
    (11, 6145),
    (12, 8193),
    (12, 12289),
    (13, 16385),
    (13, 24577),
];

// ------------------------------------------------------------ checksums

/// Incremental Adler-32 (the zlib trailer checksum).
#[derive(Debug, Clone)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Adler32 {
    /// Fresh checksum.
    pub fn new() -> Self {
        Adler32 { a: 1, b: 0 }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        const MOD: u32 = 65_521;
        // 5552 is the largest n with n*(n+1)/2*255 + (n+1)*(MOD-1) < 2^32.
        for chunk in data.chunks(5552) {
            for &byte in chunk {
                self.a += byte as u32;
                self.b += self.a;
            }
            self.a %= MOD;
            self.b %= MOD;
        }
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

// ------------------------------------------------------------- bit sink

/// LSB-first bit packer writing completed bytes straight through to `W`.
struct BitWriter<W: Write> {
    inner: W,
    bits: u32,
    nbits: u32,
}

impl<W: Write> BitWriter<W> {
    fn new(inner: W) -> Self {
        BitWriter {
            inner,
            bits: 0,
            nbits: 0,
        }
    }

    /// Write `n` bits of `value`, LSB first (DEFLATE's non-Huffman fields).
    fn put(&mut self, value: u32, n: u32) -> std::io::Result<()> {
        debug_assert!(n <= 16 && (n == 32 || value < (1 << n)));
        self.bits |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.inner.write_all(&[(self.bits & 0xFF) as u8])?;
            self.bits >>= 8;
            self.nbits -= 8;
        }
        Ok(())
    }

    /// Write a Huffman code: DEFLATE packs codes MSB-first, so the bit
    /// order is reversed relative to [`Self::put`].
    fn put_code(&mut self, code: u32, len: u32) -> std::io::Result<()> {
        let mut rev = 0u32;
        for i in 0..len {
            rev |= ((code >> i) & 1) << (len - 1 - i);
        }
        self.put(rev, len)
    }

    /// Pad to a byte boundary with zero bits.
    fn align(&mut self) -> std::io::Result<()> {
        if self.nbits > 0 {
            self.inner.write_all(&[(self.bits & 0xFF) as u8])?;
            self.bits = 0;
            self.nbits = 0;
        }
        Ok(())
    }
}

// -------------------------------------------------------------- encoder

/// The content codings the export endpoint can negotiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coding {
    /// RFC 1952 gzip framing around the DEFLATE stream.
    Gzip,
    /// RFC 1950 zlib framing (the HTTP `deflate` token, per the RFC 9110
    /// definition).
    Deflate,
}

impl Coding {
    /// The `Content-Encoding` token for this coding.
    pub fn token(self) -> &'static str {
        match self {
            Coding::Gzip => "gzip",
            Coding::Deflate => "deflate",
        }
    }
}

/// A streaming DEFLATE encoder with optional gzip/zlib framing.
///
/// Write plaintext in with [`Write`]; call [`finish`](Self::finish) exactly
/// once to flush the final block and the trailer checksum. Dropping without
/// `finish` truncates the stream (detectable by any decoder).
pub struct Encoder<W: Write> {
    bw: BitWriter<W>,
    buf: Vec<u8>,
    coding: Coding,
    crc: Crc32,
    adler: Adler32,
    total_in: u64,
    header_written: bool,
}

impl<W: Write> Encoder<W> {
    /// Wrap `inner` with the given framing.
    pub fn new(inner: W, coding: Coding) -> Self {
        Encoder {
            bw: BitWriter::new(inner),
            buf: Vec::with_capacity(BLOCK_BYTES),
            coding,
            crc: Crc32::new(),
            adler: Adler32::new(),
            total_in: 0,
            header_written: false,
        }
    }

    fn write_header(&mut self) -> std::io::Result<()> {
        match self.coding {
            Coding::Gzip => {
                // magic, CM=deflate, no flags, no mtime, XFL=0, OS=unknown.
                self.bw
                    .inner
                    .write_all(&[0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF])
            }
            // CMF=0x78 (deflate, 32K window), FLG makes the pair a
            // multiple of 31 with no preset dictionary.
            Coding::Deflate => self.bw.inner.write_all(&[0x78, 0x9C]),
        }
    }

    /// Compress and emit the buffered input as one fixed-Huffman block.
    fn emit_block(&mut self, last: bool) -> std::io::Result<()> {
        if !self.header_written {
            self.write_header()?;
            self.header_written = true;
        }
        self.bw.put(last as u32, 1)?;
        self.bw.put(0b01, 2)?; // BTYPE=01: fixed Huffman
        let data = std::mem::take(&mut self.buf);
        let tokens = Lz77::tokenize(&data);
        for token in tokens {
            match token {
                Token::Literal(byte) => put_literal(&mut self.bw, byte)?,
                Token::Match { len, dist } => put_match(&mut self.bw, len, dist)?,
            }
        }
        // End-of-block symbol 256: 7-bit code 0.
        self.bw.put_code(0, 7)?;
        self.buf = data;
        self.buf.clear();
        Ok(())
    }

    /// Flush the final block and the framing trailer, returning the inner
    /// writer. Must be called exactly once.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.emit_block(true)?;
        self.bw.align()?;
        match self.coding {
            Coding::Gzip => {
                let crc = self.crc.finish();
                let isize = (self.total_in & 0xFFFF_FFFF) as u32;
                self.bw.inner.write_all(&crc.to_le_bytes())?;
                self.bw.inner.write_all(&isize.to_le_bytes())?;
            }
            Coding::Deflate => {
                let adler = self.adler.finish();
                self.bw.inner.write_all(&adler.to_be_bytes())?;
            }
        }
        self.bw.inner.flush()?;
        Ok(self.bw.inner)
    }
}

impl<W: Write> Write for Encoder<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.crc.update(data);
        self.adler.update(data);
        self.total_in += data.len() as u64;
        let mut rest = data;
        while !rest.is_empty() {
            let take = (BLOCK_BYTES - self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == BLOCK_BYTES {
                self.emit_block(false)?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Deliberately do NOT emit a partial block: flush only pushes
        // already-encoded bytes down. Compression state stays buffered.
        self.bw.inner.flush()
    }
}

enum Token {
    Literal(u8),
    Match { len: usize, dist: usize },
}

/// Greedy hash-chain LZ77 matcher over one block.
struct Lz77;

impl Lz77 {
    fn hash(data: &[u8], pos: usize) -> usize {
        let h = (data[pos] as u32) << 16 | (data[pos + 1] as u32) << 8 | data[pos + 2] as u32;
        (h.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
    }

    fn tokenize(data: &[u8]) -> Vec<Token> {
        let n = data.len();
        let mut tokens = Vec::with_capacity(n / 3 + 8);
        if n < MIN_MATCH {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; n];
        let mut pos = 0usize;
        while pos < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if pos + MIN_MATCH <= n {
                let h = Self::hash(data, pos);
                let mut candidate = head[h];
                let mut chain = 0;
                // Chains are newest-first, so the first candidate beyond
                // the window ends the walk.
                while candidate != usize::MAX && chain < MAX_CHAIN && pos - candidate <= MAX_DIST {
                    let limit = (n - pos).min(MAX_MATCH);
                    let mut len = 0usize;
                    while len < limit && data[candidate + len] == data[pos + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - candidate;
                        if len == limit {
                            break;
                        }
                    }
                    candidate = prev[candidate];
                    chain += 1;
                }
                prev[pos] = head[h];
                head[h] = pos;
            }
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match {
                    len: best_len,
                    dist: best_dist,
                });
                // Index the skipped positions so later matches can refer
                // into this run.
                let run_end = (pos + best_len).min(n.saturating_sub(MIN_MATCH - 1));
                for (p, slot) in prev.iter_mut().enumerate().take(run_end).skip(pos + 1) {
                    let h = Self::hash(data, p);
                    *slot = head[h];
                    head[h] = p;
                }
                pos += best_len;
            } else {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
            }
        }
        tokens
    }
}

/// Emit a literal byte with the fixed literal/length code.
fn put_literal<W: Write>(bw: &mut BitWriter<W>, byte: u8) -> std::io::Result<()> {
    let sym = byte as u32;
    if sym < 144 {
        bw.put_code(0x30 + sym, 8)
    } else {
        bw.put_code(0x190 + (sym - 144), 9)
    }
}

/// Emit a length/distance pair with the fixed codes.
fn put_match<W: Write>(bw: &mut BitWriter<W>, len: usize, dist: usize) -> std::io::Result<()> {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    debug_assert!((1..=32768).contains(&dist));
    let lcode = LENGTH_TABLE
        .iter()
        .rposition(|&(_, base)| len >= base as usize)
        .expect("length in table");
    let (lextra, lbase) = LENGTH_TABLE[lcode];
    let sym = 257 + lcode as u32;
    if sym < 280 {
        bw.put_code(sym - 256, 7)?;
    } else {
        bw.put_code(0xC0 + (sym - 280), 8)?;
    }
    if lextra > 0 {
        bw.put((len - lbase as usize) as u32, lextra)?;
    }
    let dcode = DIST_TABLE
        .iter()
        .rposition(|&(_, base)| dist >= base as usize)
        .expect("distance in table");
    let (dextra, dbase) = DIST_TABLE[dcode];
    bw.put_code(dcode as u32, 5)?;
    if dextra > 0 {
        bw.put((dist - dbase as usize) as u32, dextra)?;
    }
    Ok(())
}

// -------------------------------------------------------------- decoder

/// LSB-first bit reader over a byte slice.
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bits: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bits: 0,
            nbits: 0,
        }
    }

    fn take(&mut self, n: u32) -> Result<u32, String> {
        while self.nbits < n {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or_else(|| "unexpected end of deflate stream".to_string())?;
            self.bits |= (byte as u32) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        let v = self.bits & ((1u32 << n) - 1);
        self.bits >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read `n` bits accumulating MSB-first (Huffman code order).
    fn take_code(&mut self, n: u32) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.take(1)?;
        }
        Ok(v)
    }

    fn align(&mut self) {
        self.bits = 0;
        self.nbits = 0;
    }
}

/// Canonical Huffman decoder built from per-symbol code lengths
/// (RFC 1951 §3.2.2): counts-per-length plus symbols sorted by
/// (length, symbol), decoded incrementally MSB-first — the classic
/// "puff" algorithm. Incomplete codes are accepted at build time (the
/// spec allows them for degenerate distance alphabets) and error at
/// decode time if an unassigned code is actually read.
struct Huffman {
    /// `count[len]` = number of codes of bit length `len`.
    count: [u16; 16],
    /// Symbols ordered by (code length, symbol value).
    symbols: Vec<u16>,
}

impl Huffman {
    fn new(lengths: &[u8]) -> Result<Huffman, String> {
        let mut count = [0u16; 16];
        for &len in lengths {
            if len > 15 {
                return Err(format!("Huffman code length {len} out of range"));
            }
            count[len as usize] += 1;
        }
        count[0] = 0;
        let mut left = 1i32;
        for &c in &count[1..] {
            left = (left << 1) - c as i32;
            if left < 0 {
                return Err("over-subscribed Huffman code".into());
            }
        }
        let mut offsets = [0u16; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + count[len];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbols[offsets[len as usize] as usize] = sym as u16;
                offsets[len as usize] += 1;
            }
        }
        Ok(Huffman { count, symbols })
    }

    fn decode(&self, br: &mut BitReader<'_>) -> Result<u32, String> {
        let mut code = 0u32;
        let mut first = 0u32;
        let mut index = 0u32;
        for len in 1..16 {
            code |= br.take(1)?;
            let count = self.count[len] as u32;
            if code < first + count {
                return Ok(self.symbols[(index + code - first) as usize] as u32);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err("invalid Huffman code".into())
    }
}

/// Order in which code-length-code lengths appear in a dynamic block
/// header (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Read a dynamic block's header and build its (literal/length, distance)
/// decoding tables.
fn read_dynamic_tables(br: &mut BitReader<'_>) -> Result<(Huffman, Huffman), String> {
    let hlit = br.take(5)? as usize + 257;
    let hdist = br.take(5)? as usize + 1;
    let hclen = br.take(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err("dynamic block declares too many codes".into());
    }
    let mut clen = [0u8; 19];
    for &slot in CLEN_ORDER.iter().take(hclen) {
        clen[slot] = br.take(3)? as u8;
    }
    let cl_table = Huffman::new(&clen)?;
    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = cl_table.decode(br)?;
        let (repeat, fill) = match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
                continue;
            }
            16 => {
                if i == 0 {
                    return Err("length repeat with no previous length".into());
                }
                (3 + br.take(2)? as usize, lengths[i - 1])
            }
            17 => (3 + br.take(3)? as usize, 0),
            18 => (11 + br.take(7)? as usize, 0),
            _ => return Err(format!("invalid code-length symbol {sym}")),
        };
        if i + repeat > lengths.len() {
            return Err("length repeat overflows the declared alphabet".into());
        }
        lengths[i..i + repeat].fill(fill);
        i += repeat;
    }
    if lengths[256] == 0 {
        return Err("dynamic block has no end-of-block code".into());
    }
    let litlen = Huffman::new(&lengths[..hlit])?;
    let dist = Huffman::new(&lengths[hlit..])?;
    Ok((litlen, dist))
}

/// The symbol tables in force for one compressed block: the implicit
/// fixed tables of a BTYPE=1 block or the transmitted tables of a
/// BTYPE=2 block.
enum BlockTables {
    Fixed,
    Dynamic { litlen: Huffman, dist: Huffman },
}

impl BlockTables {
    fn litlen(&self, br: &mut BitReader<'_>) -> Result<u32, String> {
        match self {
            BlockTables::Fixed => decode_fixed_litlen(br),
            BlockTables::Dynamic { litlen, .. } => litlen.decode(br),
        }
    }

    fn dist_code(&self, br: &mut BitReader<'_>) -> Result<u32, String> {
        match self {
            BlockTables::Fixed => br.take_code(5),
            BlockTables::Dynamic { dist, .. } => dist.decode(br),
        }
    }
}

/// Decode one compressed block's symbol stream into `out`.
fn decode_block(
    br: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    tables: &BlockTables,
) -> Result<(), String> {
    loop {
        let sym = tables.litlen(br)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (lextra, lbase) = LENGTH_TABLE[sym as usize - 257];
                let len = lbase as usize + br.take(lextra)? as usize;
                let dcode = tables.dist_code(br)? as usize;
                if dcode >= DIST_TABLE.len() {
                    return Err(format!("invalid distance code {dcode}"));
                }
                let (dextra, dbase) = DIST_TABLE[dcode];
                let dist = dbase as usize + br.take(dextra)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err("distance before start of output".into());
                }
                let start = out.len() - dist;
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            _ => return Err(format!("invalid literal/length symbol {sym}")),
        }
    }
}

/// Decode a raw DEFLATE stream: stored, fixed-Huffman, and
/// dynamic-Huffman blocks (the full RFC 1951 block repertoire), so
/// request bodies compressed by any standards-conforming tool — not just
/// by [`Encoder`] — decode.
///
/// # Errors
///
/// A description of the framing violation, truncation, or invalid code.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut br = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let last = br.take(1)? == 1;
        match br.take(2)? {
            0 => {
                br.align();
                if br.pos + 4 > br.data.len() {
                    return Err("truncated stored-block header".into());
                }
                let len = u16::from_le_bytes([br.data[br.pos], br.data[br.pos + 1]]) as usize;
                let nlen = u16::from_le_bytes([br.data[br.pos + 2], br.data[br.pos + 3]]);
                if nlen != !(len as u16) {
                    return Err("stored-block LEN/NLEN mismatch".into());
                }
                br.pos += 4;
                if br.pos + len > br.data.len() {
                    return Err("truncated stored block".into());
                }
                out.extend_from_slice(&br.data[br.pos..br.pos + len]);
                br.pos += len;
            }
            1 => decode_block(&mut br, &mut out, &BlockTables::Fixed)?,
            2 => {
                let (litlen, dist) = read_dynamic_tables(&mut br)?;
                decode_block(&mut br, &mut out, &BlockTables::Dynamic { litlen, dist })?;
            }
            _ => return Err("reserved block type".into()),
        }
        if last {
            return Ok(out);
        }
    }
}

/// Decode one fixed-table literal/length symbol (canonical incremental
/// decode: 7-bit, then 8-bit, then 9-bit ranges).
fn decode_fixed_litlen(br: &mut BitReader<'_>) -> Result<u32, String> {
    let c7 = br.take_code(7)?;
    if c7 <= 0b0010111 {
        return Ok(256 + c7);
    }
    let c8 = (c7 << 1) | br.take(1)?;
    if (0x30..=0xBF).contains(&c8) {
        return Ok(c8 - 0x30);
    }
    if (0xC0..=0xC7).contains(&c8) {
        return Ok(280 + (c8 - 0xC0));
    }
    let c9 = (c8 << 1) | br.take(1)?;
    if (0x190..=0x1FF).contains(&c9) {
        return Ok(144 + (c9 - 0x190));
    }
    Err(format!("invalid fixed literal/length code {c9:#x}"))
}

/// Strip the gzip framing and decode the payload with [`inflate`],
/// verifying the CRC-32 and length trailer.
///
/// # Errors
///
/// A description of the framing violation or checksum mismatch.
pub fn gunzip(data: &[u8]) -> Result<Vec<u8>, String> {
    if data.len() < 18 || data[0] != 0x1F || data[1] != 0x8B || data[2] != 8 {
        return Err("not a gzip stream".into());
    }
    let flg = data[3];
    if flg & 0xE0 != 0 {
        return Err("gzip reserved FLG bits set".into());
    }
    // Skip the optional header fields real gzip tools emit (RFC 1952):
    // FEXTRA (2-byte LE length + payload), NUL-terminated FNAME and
    // FCOMMENT, and the 2-byte FHCRC. FTEXT is a hint and needs nothing.
    let body_end = data.len() - 8;
    let mut pos = 10usize;
    if flg & 0x04 != 0 {
        if pos + 2 > body_end {
            return Err("truncated gzip FEXTRA field".into());
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for (bit, field) in [(0x08u8, "FNAME"), (0x10, "FCOMMENT")] {
        if flg & bit != 0 {
            let nul = data[pos..body_end]
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| format!("truncated gzip {field} field"))?;
            pos += nul + 1;
        }
    }
    if flg & 0x02 != 0 {
        pos += 2;
    }
    if pos > body_end {
        return Err("gzip header overruns the stream".into());
    }
    let payload = &data[pos..body_end];
    let out = inflate(payload)?;
    let trailer = &data[data.len() - 8..];
    let crc = u32::from_le_bytes(trailer[..4].try_into().unwrap());
    let isize = u32::from_le_bytes(trailer[4..].try_into().unwrap());
    let mut check = Crc32::new();
    check.update(&out);
    if check.finish() != crc {
        return Err("gzip CRC mismatch".into());
    }
    if out.len() as u32 != isize {
        return Err("gzip ISIZE mismatch".into());
    }
    Ok(out)
}

/// Strip the zlib framing and decode the payload with [`inflate`],
/// verifying the Adler-32 trailer.
///
/// # Errors
///
/// A description of the framing violation or checksum mismatch.
pub fn zlib_decode(data: &[u8]) -> Result<Vec<u8>, String> {
    if data.len() < 6 || data[0] & 0x0F != 8 {
        return Err("not a zlib stream".into());
    }
    if !u16::from_be_bytes([data[0], data[1]]).is_multiple_of(31) {
        return Err("zlib header check failed".into());
    }
    let payload = &data[2..data.len() - 4];
    let out = inflate(payload)?;
    let adler = u32::from_be_bytes(data[data.len() - 4..].try_into().unwrap());
    let mut check = Adler32::new();
    check.update(&out);
    if check.finish() != adler {
        return Err("zlib Adler-32 mismatch".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(coding: Coding, data: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new(Vec::new(), coding);
        enc.write_all(data).unwrap();
        let framed = enc.finish().unwrap();
        match coding {
            Coding::Gzip => gunzip(&framed).unwrap(),
            Coding::Deflate => zlib_decode(&framed).unwrap(),
        }
    }

    #[test]
    fn adler_known_value() {
        // Adler-32 of "Wikipedia" per the reference definition.
        let mut a = Adler32::new();
        a.update(b"Wikipedia");
        assert_eq!(a.finish(), 0x11E6_0398);
    }

    #[test]
    fn empty_input_round_trips() {
        assert_eq!(round_trip(Coding::Gzip, b""), b"");
        assert_eq!(round_trip(Coding::Deflate, b""), b"");
    }

    #[test]
    fn short_and_incompressible_inputs_round_trip() {
        assert_eq!(round_trip(Coding::Gzip, b"ab"), b"ab");
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        assert_eq!(round_trip(Coding::Gzip, &noise), noise);
        assert_eq!(round_trip(Coding::Deflate, &noise), noise);
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let mut data = Vec::new();
        for i in 0..5000 {
            data.extend_from_slice(format!("row-{},value,{}\n", i % 100, i % 7).as_bytes());
        }
        let mut enc = Encoder::new(Vec::new(), Coding::Gzip);
        enc.write_all(&data).unwrap();
        let framed = enc.finish().unwrap();
        assert_eq!(gunzip(&framed).unwrap(), data);
        assert!(
            framed.len() * 4 < data.len(),
            "expected ≥4× compression on repetitive CSV, got {} -> {}",
            data.len(),
            framed.len()
        );
    }

    #[test]
    fn multi_block_input_round_trips() {
        // Spans several BLOCK_BYTES buffers, written in awkward slices.
        let mut data = Vec::new();
        let mut x = 1u64;
        while data.len() < 3 * BLOCK_BYTES + 777 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.extend_from_slice(format!("{x},{},end\n", x % 3).as_bytes());
        }
        let mut enc = Encoder::new(Vec::new(), Coding::Deflate);
        for chunk in data.chunks(1234) {
            enc.write_all(chunk).unwrap();
        }
        let framed = enc.finish().unwrap();
        assert_eq!(zlib_decode(&framed).unwrap(), data);
    }

    #[test]
    fn all_byte_values_round_trip() {
        // Exercises the 9-bit literal range (144..=255).
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        assert_eq!(round_trip(Coding::Gzip, &data), data);
    }

    #[test]
    fn inflate_rejects_garbage() {
        assert!(inflate(&[0xFF, 0xFF, 0xFF]).is_err());
        assert!(gunzip(b"not gzip at all").is_err());
        assert!(zlib_decode(&[0x78, 0x9C]).is_err());
        // Corrupt one byte of a valid stream: CRC must catch it.
        let mut enc = Encoder::new(Vec::new(), Coding::Gzip);
        enc.write_all(b"hello hello hello hello").unwrap();
        let mut framed = enc.finish().unwrap();
        let mid = framed.len() / 2;
        framed[mid] ^= 0x40;
        assert!(gunzip(&framed).is_err());
    }

    #[test]
    fn max_length_matches_encode_correctly() {
        // A long run produces 258-byte matches (length code 285, 0 extra).
        let data = vec![b'z'; 10_000];
        assert_eq!(round_trip(Coding::Gzip, &data), data);
    }
    const ZLIB_DYNAMIC: &[u8] = &[
        0x78, 0xDA, 0xAD, 0x9A, 0x4B, 0x8B, 0x5E, 0x37, 0x0C, 0x86, 0xF7, 0xF9, 0x15, 0x67, 0x97,
        0xB6, 0x90, 0x60, 0x5D, 0x6C, 0xC9, 0xD0, 0x59, 0x94, 0x74, 0x42, 0xA0, 0x6D, 0x02, 0xB9,
        0xD0, 0x75, 0x98, 0x0E, 0xA5, 0x8B, 0xA6, 0xD0, 0x90, 0xFF, 0x9F, 0x59, 0x24, 0x60, 0xC1,
        0x88, 0x23, 0xBF, 0x9C, 0xE5, 0x7C, 0x0B, 0x61, 0x3C, 0x7A, 0x24, 0xF9, 0x39, 0x7A, 0x77,
        0xFB, 0xFB, 0xED, 0x8B, 0xF7, 0xC7, 0x8B, 0x37, 0x1F, 0x5E, 0xBF, 0xFF, 0xE1, 0xA7, 0x1F,
        0x8F, 0x97, 0x6F, 0xDF, 0xFC, 0x71, 0xDC, 0xDD, 0x7F, 0xFA, 0xFC, 0xE5, 0xF3, 0xF1, 0xE7,
        0xAB, 0xDB, 0xB7, 0xB7, 0xDF, 0xFE, 0x78, 0xFE, 0xF1, 0xEF, 0xFB, 0xE3, 0xE7, 0x9B, 0xA3,
        0x1D, 0xBF, 0xBC, 0xFE, 0xF5, 0xFB, 0x6F, 0xFF, 0x7C, 0xBA, 0xFB, 0xEF, 0xDF, 0xFB, 0xE3,
        0xE6, 0x78, 0xDA, 0x7E, 0x7B, 0x7A, 0x3C, 0x7B, 0x76, 0xDC, 0x7D, 0xFC, 0xFF, 0xAF, 0x9B,
        0xF6, 0xE4, 0xDD, 0x66, 0x50, 0x7B, 0x3C, 0x28, 0xC9, 0x12, 0x95, 0xB6, 0xA3, 0x92, 0x3E,
        0x1E, 0x96, 0xC7, 0x12, 0x56, 0xB7, 0xC3, 0x32, 0x3D, 0x1E, 0x56, 0xE6, 0x12, 0x76, 0xEE,
        0x87, 0xF5, 0xE4, 0xB4, 0xEB, 0x1D, 0x8C, 0xED, 0xB0, 0xD2, 0x93, 0xBB, 0xED, 0x4B, 0x5C,
        0xEE, 0xDB, 0x71, 0x95, 0x93, 0xE3, 0xFA, 0x12, 0x57, 0xF6, 0xCF, 0xAB, 0xF3, 0xF1, 0xB8,
        0x4A, 0xEB, 0x3F, 0x6D, 0xFF, 0x7A, 0xFB, 0x48, 0xE2, 0x2E, 0x61, 0xC7, 0x7E, 0x32, 0x0C,
        0x49, 0xAE, 0xD7, 0x96, 0xB8, 0xBE, 0x9F, 0xBB, 0x96, 0x70, 0x26, 0x2B, 0x68, 0xD4, 0x00,
        0xD4, 0x12, 0xD6, 0x34, 0xB0, 0xC6, 0xFB, 0x27, 0xF6, 0x84, 0xB6, 0x15, 0x36, 0xD2, 0xFD,
        0x1B, 0x9E, 0x09, 0x6E, 0x34, 0x03, 0x18, 0xFB, 0x19, 0x91, 0x61, 0x1C, 0x80, 0x9B, 0xFB,
        0x19, 0x9C, 0x70, 0xAC, 0x01, 0x38, 0x80, 0x38, 0x4A, 0x48, 0xF6, 0x00, 0xF2, 0xFE, 0x79,
        0x39, 0x23, 0x79, 0x25, 0x8E, 0x1D, 0xA8, 0x68, 0x09, 0xCA, 0xB2, 0x32, 0x27, 0xBC, 0x9F,
        0x12, 0x92, 0xB1, 0x6C, 0xA1, 0xF6, 0xEC, 0xE7, 0xB0, 0x66, 0x34, 0xAF, 0xD4, 0x29, 0x40,
        0x5D, 0x4F, 0x70, 0xE6, 0x95, 0x3A, 0xD5, 0xFD, 0x13, 0xF7, 0x04, 0x67, 0x09, 0x3D, 0xCE,
        0x81, 0xC2, 0x96, 0xE0, 0xAC, 0x2B, 0x76, 0x9D, 0xF7, 0xB3, 0xC2, 0x32, 0x9E, 0x57, 0xEE,
        0xBA, 0xED, 0xE7, 0xB1, 0x65, 0x0D, 0x74, 0x05, 0x6F, 0x00, 0xE0, 0x79, 0x02, 0x9E, 0xAC,
        0xE4, 0x0D, 0xE0, 0xC4, 0x33, 0x21, 0x6F, 0x05, 0xCF, 0x80, 0x2B, 0xCE, 0xC2, 0xAE, 0xDC,
        0x19, 0x90, 0x13, 0x09, 0xCF, 0x1C, 0x7A, 0x1D, 0x90, 0xC4, 0x94, 0xF1, 0xBC, 0x62, 0x37,
        0x01, 0xEC, 0x38, 0xE1, 0x79, 0xA5, 0x6E, 0x02, 0x75, 0x42, 0x12, 0x9C, 0x29, 0x34, 0xBB,
        0x86, 0x94, 0xB6, 0x84, 0x67, 0x0E, 0xDD, 0xAE, 0x01, 0xD5, 0x58, 0x33, 0xA0, 0x43, 0xBF,
        0x23, 0xA0, 0x81, 0xF4, 0x84, 0xE8, 0x1E, 0x26, 0x0A, 0x00, 0xBC, 0x9E, 0x10, 0x4D, 0x1E,
        0x22, 0x03, 0x3D, 0x7A, 0x64, 0x48, 0xAF, 0xE8, 0x91, 0x00, 0x53, 0x85, 0x25, 0xF0, 0xA9,
        0xC6, 0x39, 0x68, 0x3F, 0x35, 0x2C, 0xC1, 0x6F, 0xA5, 0x8F, 0x3A, 0x32, 0xB9, 0x25, 0xF8,
        0x71, 0x98, 0x35, 0x07, 0xC0, 0xDF, 0xCC, 0xF8, 0x0B, 0xC3, 0xE6, 0x00, 0xE6, 0xE3, 0x24,
        0xB0, 0x06, 0x00, 0x0D, 0x18, 0xE8, 0x29, 0x41, 0x3B, 0xF0, 0xE7, 0xC0, 0x03, 0x84, 0x32,
        0xB2, 0xE3, 0xBC, 0x09, 0x3C, 0x99, 0x38, 0x21, 0x5B, 0xC2, 0xC4, 0xD9, 0x00, 0x00, 0x25,
        0x21, 0x5B, 0xC3, 0xCC, 0x49, 0xC8, 0xB3, 0x34, 0x43, 0x3B, 0x0C, 0x9D, 0xDC, 0x80, 0x3A,
        0x97, 0xA0, 0xCD, 0x2B, 0x80, 0x2C, 0x6D, 0x3F, 0x35, 0x7A, 0x82, 0xB6, 0xAC, 0x04, 0xB2,
        0x36, 0x60, 0x8A, 0x9B, 0xE7, 0x56, 0x85, 0x3B, 0x00, 0xE0, 0x18, 0x05, 0xB3, 0xC2, 0x03,
        0x38, 0xB2, 0x49, 0x41, 0xAE, 0xB0, 0x01, 0xD7, 0xEC, 0xAD, 0xE0, 0x57, 0xD8, 0x81, 0xD4,
        0x70, 0x3B, 0x57, 0x2C, 0x3C, 0x81, 0x6C, 0x9E, 0x5A, 0x90, 0x2C, 0x82, 0x10, 0xA8, 0x15,
        0xCB, 0x42, 0x40, 0xD1, 0x20, 0x2A, 0x78, 0x96, 0x87, 0xC7, 0x19, 0x50, 0xE8, 0xFC, 0xDC,
        0xB4, 0x88, 0x00, 0xA5, 0x99, 0x7B, 0xC1, 0xB5, 0x88, 0x22, 0xDD, 0x84, 0x0B, 0xB6, 0x45,
        0x90, 0x0E, 0x28, 0xB3, 0xA0, 0x5B, 0xC4, 0x80, 0xAE, 0xAD, 0xE3, 0xDC, 0xB7, 0x88, 0x03,
        0x73, 0x46, 0x97, 0x82, 0x70, 0x91, 0x09, 0xCC, 0x46, 0xA3, 0x15, 0x94, 0x8B, 0x36, 0x64,
        0x9E, 0xB3, 0x82, 0x74, 0x51, 0x64, 0x06, 0x35, 0x3D, 0xB7, 0x2E, 0x2A, 0xC0, 0xD4, 0xEC,
        0x54, 0xD0, 0x2E, 0xAA, 0xC0, 0xA4, 0xEF, 0x5E, 0xF0, 0x2E, 0x3A, 0x80, 0xD7, 0xC9, 0xEC,
        0x05, 0xF1, 0xA2, 0x06, 0xBC, 0xA8, 0x7A, 0x45, 0xBC, 0x20, 0x4F, 0x40, 0xE2, 0x82, 0x79,
        0xE9, 0x0D, 0x79, 0xB5, 0xCE, 0x82, 0x7A, 0xE9, 0x04, 0xBC, 0xB3, 0x79, 0x54, 0xDC, 0x8B,
        0x00, 0x66, 0x40, 0xA4, 0x22, 0x5F, 0x14, 0x70, 0x19, 0xDA, 0x0A, 0xF6, 0xA5, 0x23, 0xFA,
        0x45, 0xAD, 0xA0, 0x5F, 0xBA, 0x01, 0x67, 0xEE, 0x7A, 0xEE, 0x5F, 0xFA, 0x04, 0xAE, 0x79,
        0x50, 0xC1, 0xC0, 0x8C, 0x86, 0x68, 0x39, 0x2F, 0x38, 0x98, 0x07, 0xB4, 0x81, 0x81, 0xAE,
        0x17, 0x24, 0xCC, 0x40, 0xE4, 0xA7, 0xF3, 0xB9, 0x85, 0x19, 0x1D, 0x28, 0x1A, 0x3E, 0x0B,
        0x1A, 0x66, 0x18, 0x52, 0xE8, 0x46, 0x41, 0xC3, 0x0C, 0x07, 0x8A, 0xF3, 0x28, 0x58, 0x18,
        0x6B, 0x40, 0x3F, 0x21, 0x39, 0xB7, 0x30, 0x86, 0x74, 0x40, 0x6E, 0x05, 0x0B, 0x63, 0x02,
        0x74, 0x6D, 0xB6, 0x82, 0x85, 0xB1, 0x0E, 0x4C, 0x1A, 0xA2, 0x05, 0x0B, 0x63, 0x06, 0x4C,
        0x47, 0x4A, 0xE7, 0x16, 0xC6, 0x26, 0x32, 0xCF, 0x79, 0xC1, 0xC2, 0x38, 0xF2, 0xC9, 0xAF,
        0xF7, 0x82, 0x85, 0x71, 0x06, 0xE6, 0xE6, 0xC1, 0x05, 0x0D, 0xE3, 0x8A, 0x7C, 0x57, 0x9D,
        0xE7, 0x1A, 0xC6, 0x07, 0xF0, 0x3A, 0xB1, 0x51, 0xD0, 0x30, 0xEE, 0xC0, 0x8B, 0xCA, 0xA5,
        0xA0, 0x61, 0x26, 0xF2, 0x08, 0x9C, 0xAD, 0xA0, 0x61, 0x1E, 0x72, 0x6E, 0xFF, 0xCC, 0xAD,
        0x60, 0x61, 0xA6, 0x02, 0x4F, 0x6D, 0x2B, 0x48, 0x98, 0x39, 0x00, 0x3B, 0x90, 0x2D, 0x75,
        0x04, 0x09, 0x33, 0x1D, 0x30, 0x1A, 0xD9, 0x5E, 0x47, 0x90, 0x30, 0x76, 0xD9, 0x5E, 0x47,
        0x54, 0x30, 0xEC, 0x97, 0x6D, 0x76, 0xC4, 0xF5, 0x16, 0xA1, 0xCB, 0x56, 0x3B, 0x82, 0x80,
        0x19, 0x17, 0xEE, 0x76, 0x04, 0xF4, 0x54, 0x2E, 0xDB, 0xED, 0x08, 0xFA, 0x85, 0x5A, 0xE7,
        0xCB, 0xD6, 0x3B, 0x38, 0x7E, 0x81, 0x18, 0x72, 0xD9, 0x82, 0x47, 0xF0, 0x2F, 0x84, 0x4C,
        0xE2, 0xE9, 0x86, 0x47, 0xDC, 0x97, 0xB8, 0x6E, 0xC3, 0x23, 0xF8, 0x17, 0x9A, 0xCD, 0x2F,
        0xDB, 0xF1, 0x08, 0xFE, 0x85, 0x09, 0xA0, 0x8F, 0x0A, 0xFA, 0x85, 0x45, 0xFD, 0xAA, 0x2D,
        0x8F, 0x60, 0x3F, 0xBB, 0xD1, 0x65, 0x5B, 0x1E, 0xC1, 0xBE, 0xB0, 0xCD, 0xEB, 0xF6, 0x3C,
        0x82, 0x7D, 0x91, 0xC6, 0x72, 0xD9, 0xA2, 0x47, 0xB0, 0x2F, 0xC2, 0x00, 0x7F, 0xD9, 0xA6,
        0x87, 0x47, 0xE3, 0x27, 0x97, 0x6D, 0x7A, 0x04, 0xFB, 0x22, 0x06, 0xB4, 0xD4, 0x6C, 0xD5,
        0x23, 0x6E, 0xBD, 0xCC, 0x7E, 0xDD, 0xAE, 0x47, 0xB4, 0x2F, 0xE4, 0xFE, 0xE4, 0x2B, 0x36,
        0x26, 0x03, 0xE7,
    ];
    const GZIP_DYNAMIC_FNAME: &[u8] = &[
        0x1F, 0x8B, 0x08, 0x08, 0x00, 0x00, 0x00, 0x00, 0x02, 0xFF, 0x77, 0x6C, 0x2E, 0x73, 0x71,
        0x6C, 0x00, 0xAD, 0x9A, 0x4B, 0x8B, 0x5E, 0x37, 0x0C, 0x86, 0xF7, 0xF9, 0x15, 0x67, 0x97,
        0xB6, 0x90, 0x60, 0x5D, 0x6C, 0xC9, 0xD0, 0x59, 0x94, 0x74, 0x42, 0xA0, 0x6D, 0x02, 0xB9,
        0xD0, 0x75, 0x98, 0x0E, 0xA5, 0x8B, 0xA6, 0xD0, 0x90, 0xFF, 0x9F, 0x59, 0x24, 0x60, 0xC1,
        0x88, 0x23, 0xBF, 0x9C, 0xE5, 0x7C, 0x0B, 0x61, 0x3C, 0x7A, 0x24, 0xF9, 0x39, 0x7A, 0x77,
        0xFB, 0xFB, 0xED, 0x8B, 0xF7, 0xC7, 0x8B, 0x37, 0x1F, 0x5E, 0xBF, 0xFF, 0xE1, 0xA7, 0x1F,
        0x8F, 0x97, 0x6F, 0xDF, 0xFC, 0x71, 0xDC, 0xDD, 0x7F, 0xFA, 0xFC, 0xE5, 0xF3, 0xF1, 0xE7,
        0xAB, 0xDB, 0xB7, 0xB7, 0xDF, 0xFE, 0x78, 0xFE, 0xF1, 0xEF, 0xFB, 0xE3, 0xE7, 0x9B, 0xA3,
        0x1D, 0xBF, 0xBC, 0xFE, 0xF5, 0xFB, 0x6F, 0xFF, 0x7C, 0xBA, 0xFB, 0xEF, 0xDF, 0xFB, 0xE3,
        0xE6, 0x78, 0xDA, 0x7E, 0x7B, 0x7A, 0x3C, 0x7B, 0x76, 0xDC, 0x7D, 0xFC, 0xFF, 0xAF, 0x9B,
        0xF6, 0xE4, 0xDD, 0x66, 0x50, 0x7B, 0x3C, 0x28, 0xC9, 0x12, 0x95, 0xB6, 0xA3, 0x92, 0x3E,
        0x1E, 0x96, 0xC7, 0x12, 0x56, 0xB7, 0xC3, 0x32, 0x3D, 0x1E, 0x56, 0xE6, 0x12, 0x76, 0xEE,
        0x87, 0xF5, 0xE4, 0xB4, 0xEB, 0x1D, 0x8C, 0xED, 0xB0, 0xD2, 0x93, 0xBB, 0xED, 0x4B, 0x5C,
        0xEE, 0xDB, 0x71, 0x95, 0x93, 0xE3, 0xFA, 0x12, 0x57, 0xF6, 0xCF, 0xAB, 0xF3, 0xF1, 0xB8,
        0x4A, 0xEB, 0x3F, 0x6D, 0xFF, 0x7A, 0xFB, 0x48, 0xE2, 0x2E, 0x61, 0xC7, 0x7E, 0x32, 0x0C,
        0x49, 0xAE, 0xD7, 0x96, 0xB8, 0xBE, 0x9F, 0xBB, 0x96, 0x70, 0x26, 0x2B, 0x68, 0xD4, 0x00,
        0xD4, 0x12, 0xD6, 0x34, 0xB0, 0xC6, 0xFB, 0x27, 0xF6, 0x84, 0xB6, 0x15, 0x36, 0xD2, 0xFD,
        0x1B, 0x9E, 0x09, 0x6E, 0x34, 0x03, 0x18, 0xFB, 0x19, 0x91, 0x61, 0x1C, 0x80, 0x9B, 0xFB,
        0x19, 0x9C, 0x70, 0xAC, 0x01, 0x38, 0x80, 0x38, 0x4A, 0x48, 0xF6, 0x00, 0xF2, 0xFE, 0x79,
        0x39, 0x23, 0x79, 0x25, 0x8E, 0x1D, 0xA8, 0x68, 0x09, 0xCA, 0xB2, 0x32, 0x27, 0xBC, 0x9F,
        0x12, 0x92, 0xB1, 0x6C, 0xA1, 0xF6, 0xEC, 0xE7, 0xB0, 0x66, 0x34, 0xAF, 0xD4, 0x29, 0x40,
        0x5D, 0x4F, 0x70, 0xE6, 0x95, 0x3A, 0xD5, 0xFD, 0x13, 0xF7, 0x04, 0x67, 0x09, 0x3D, 0xCE,
        0x81, 0xC2, 0x96, 0xE0, 0xAC, 0x2B, 0x76, 0x9D, 0xF7, 0xB3, 0xC2, 0x32, 0x9E, 0x57, 0xEE,
        0xBA, 0xED, 0xE7, 0xB1, 0x65, 0x0D, 0x74, 0x05, 0x6F, 0x00, 0xE0, 0x79, 0x02, 0x9E, 0xAC,
        0xE4, 0x0D, 0xE0, 0xC4, 0x33, 0x21, 0x6F, 0x05, 0xCF, 0x80, 0x2B, 0xCE, 0xC2, 0xAE, 0xDC,
        0x19, 0x90, 0x13, 0x09, 0xCF, 0x1C, 0x7A, 0x1D, 0x90, 0xC4, 0x94, 0xF1, 0xBC, 0x62, 0x37,
        0x01, 0xEC, 0x38, 0xE1, 0x79, 0xA5, 0x6E, 0x02, 0x75, 0x42, 0x12, 0x9C, 0x29, 0x34, 0xBB,
        0x86, 0x94, 0xB6, 0x84, 0x67, 0x0E, 0xDD, 0xAE, 0x01, 0xD5, 0x58, 0x33, 0xA0, 0x43, 0xBF,
        0x23, 0xA0, 0x81, 0xF4, 0x84, 0xE8, 0x1E, 0x26, 0x0A, 0x00, 0xBC, 0x9E, 0x10, 0x4D, 0x1E,
        0x22, 0x03, 0x3D, 0x7A, 0x64, 0x48, 0xAF, 0xE8, 0x91, 0x00, 0x53, 0x85, 0x25, 0xF0, 0xA9,
        0xC6, 0x39, 0x68, 0x3F, 0x35, 0x2C, 0xC1, 0x6F, 0xA5, 0x8F, 0x3A, 0x32, 0xB9, 0x25, 0xF8,
        0x71, 0x98, 0x35, 0x07, 0xC0, 0xDF, 0xCC, 0xF8, 0x0B, 0xC3, 0xE6, 0x00, 0xE6, 0xE3, 0x24,
        0xB0, 0x06, 0x00, 0x0D, 0x18, 0xE8, 0x29, 0x41, 0x3B, 0xF0, 0xE7, 0xC0, 0x03, 0x84, 0x32,
        0xB2, 0xE3, 0xBC, 0x09, 0x3C, 0x99, 0x38, 0x21, 0x5B, 0xC2, 0xC4, 0xD9, 0x00, 0x00, 0x25,
        0x21, 0x5B, 0xC3, 0xCC, 0x49, 0xC8, 0xB3, 0x34, 0x43, 0x3B, 0x0C, 0x9D, 0xDC, 0x80, 0x3A,
        0x97, 0xA0, 0xCD, 0x2B, 0x80, 0x2C, 0x6D, 0x3F, 0x35, 0x7A, 0x82, 0xB6, 0xAC, 0x04, 0xB2,
        0x36, 0x60, 0x8A, 0x9B, 0xE7, 0x56, 0x85, 0x3B, 0x00, 0xE0, 0x18, 0x05, 0xB3, 0xC2, 0x03,
        0x38, 0xB2, 0x49, 0x41, 0xAE, 0xB0, 0x01, 0xD7, 0xEC, 0xAD, 0xE0, 0x57, 0xD8, 0x81, 0xD4,
        0x70, 0x3B, 0x57, 0x2C, 0x3C, 0x81, 0x6C, 0x9E, 0x5A, 0x90, 0x2C, 0x82, 0x10, 0xA8, 0x15,
        0xCB, 0x42, 0x40, 0xD1, 0x20, 0x2A, 0x78, 0x96, 0x87, 0xC7, 0x19, 0x50, 0xE8, 0xFC, 0xDC,
        0xB4, 0x88, 0x00, 0xA5, 0x99, 0x7B, 0xC1, 0xB5, 0x88, 0x22, 0xDD, 0x84, 0x0B, 0xB6, 0x45,
        0x90, 0x0E, 0x28, 0xB3, 0xA0, 0x5B, 0xC4, 0x80, 0xAE, 0xAD, 0xE3, 0xDC, 0xB7, 0x88, 0x03,
        0x73, 0x46, 0x97, 0x82, 0x70, 0x91, 0x09, 0xCC, 0x46, 0xA3, 0x15, 0x94, 0x8B, 0x36, 0x64,
        0x9E, 0xB3, 0x82, 0x74, 0x51, 0x64, 0x06, 0x35, 0x3D, 0xB7, 0x2E, 0x2A, 0xC0, 0xD4, 0xEC,
        0x54, 0xD0, 0x2E, 0xAA, 0xC0, 0xA4, 0xEF, 0x5E, 0xF0, 0x2E, 0x3A, 0x80, 0xD7, 0xC9, 0xEC,
        0x05, 0xF1, 0xA2, 0x06, 0xBC, 0xA8, 0x7A, 0x45, 0xBC, 0x20, 0x4F, 0x40, 0xE2, 0x82, 0x79,
        0xE9, 0x0D, 0x79, 0xB5, 0xCE, 0x82, 0x7A, 0xE9, 0x04, 0xBC, 0xB3, 0x79, 0x54, 0xDC, 0x8B,
        0x00, 0x66, 0x40, 0xA4, 0x22, 0x5F, 0x14, 0x70, 0x19, 0xDA, 0x0A, 0xF6, 0xA5, 0x23, 0xFA,
        0x45, 0xAD, 0xA0, 0x5F, 0xBA, 0x01, 0x67, 0xEE, 0x7A, 0xEE, 0x5F, 0xFA, 0x04, 0xAE, 0x79,
        0x50, 0xC1, 0xC0, 0x8C, 0x86, 0x68, 0x39, 0x2F, 0x38, 0x98, 0x07, 0xB4, 0x81, 0x81, 0xAE,
        0x17, 0x24, 0xCC, 0x40, 0xE4, 0xA7, 0xF3, 0xB9, 0x85, 0x19, 0x1D, 0x28, 0x1A, 0x3E, 0x0B,
        0x1A, 0x66, 0x18, 0x52, 0xE8, 0x46, 0x41, 0xC3, 0x0C, 0x07, 0x8A, 0xF3, 0x28, 0x58, 0x18,
        0x6B, 0x40, 0x3F, 0x21, 0x39, 0xB7, 0x30, 0x86, 0x74, 0x40, 0x6E, 0x05, 0x0B, 0x63, 0x02,
        0x74, 0x6D, 0xB6, 0x82, 0x85, 0xB1, 0x0E, 0x4C, 0x1A, 0xA2, 0x05, 0x0B, 0x63, 0x06, 0x4C,
        0x47, 0x4A, 0xE7, 0x16, 0xC6, 0x26, 0x32, 0xCF, 0x79, 0xC1, 0xC2, 0x38, 0xF2, 0xC9, 0xAF,
        0xF7, 0x82, 0x85, 0x71, 0x06, 0xE6, 0xE6, 0xC1, 0x05, 0x0D, 0xE3, 0x8A, 0x7C, 0x57, 0x9D,
        0xE7, 0x1A, 0xC6, 0x07, 0xF0, 0x3A, 0xB1, 0x51, 0xD0, 0x30, 0xEE, 0xC0, 0x8B, 0xCA, 0xA5,
        0xA0, 0x61, 0x26, 0xF2, 0x08, 0x9C, 0xAD, 0xA0, 0x61, 0x1E, 0x72, 0x6E, 0xFF, 0xCC, 0xAD,
        0x60, 0x61, 0xA6, 0x02, 0x4F, 0x6D, 0x2B, 0x48, 0x98, 0x39, 0x00, 0x3B, 0x90, 0x2D, 0x75,
        0x04, 0x09, 0x33, 0x1D, 0x30, 0x1A, 0xD9, 0x5E, 0x47, 0x90, 0x30, 0x76, 0xD9, 0x5E, 0x47,
        0x54, 0x30, 0xEC, 0x97, 0x6D, 0x76, 0xC4, 0xF5, 0x16, 0xA1, 0xCB, 0x56, 0x3B, 0x82, 0x80,
        0x19, 0x17, 0xEE, 0x76, 0x04, 0xF4, 0x54, 0x2E, 0xDB, 0xED, 0x08, 0xFA, 0x85, 0x5A, 0xE7,
        0xCB, 0xD6, 0x3B, 0x38, 0x7E, 0x81, 0x18, 0x72, 0xD9, 0x82, 0x47, 0xF0, 0x2F, 0x84, 0x4C,
        0xE2, 0xE9, 0x86, 0x47, 0xDC, 0x97, 0xB8, 0x6E, 0xC3, 0x23, 0xF8, 0x17, 0x9A, 0xCD, 0x2F,
        0xDB, 0xF1, 0x08, 0xFE, 0x85, 0x09, 0xA0, 0x8F, 0x0A, 0xFA, 0x85, 0x45, 0xFD, 0xAA, 0x2D,
        0x8F, 0x60, 0x3F, 0xBB, 0xD1, 0x65, 0x5B, 0x1E, 0xC1, 0xBE, 0xB0, 0xCD, 0xEB, 0xF6, 0x3C,
        0x82, 0x7D, 0x91, 0xC6, 0x72, 0xD9, 0xA2, 0x47, 0xB0, 0x2F, 0xC2, 0x00, 0x7F, 0xD9, 0xA6,
        0x87, 0x47, 0xE3, 0x27, 0x97, 0x6D, 0x7A, 0x04, 0xFB, 0x22, 0x06, 0xB4, 0xD4, 0x6C, 0xD5,
        0x23, 0x6E, 0xBD, 0xCC, 0x7E, 0xDD, 0xAE, 0x47, 0xB4, 0x2F, 0xE4, 0xFE, 0xE4, 0x2B, 0xFF,
        0x6D, 0x43, 0xCA, 0xD5, 0x29, 0x00, 0x00,
    ];

    /// The workload text the dynamic-Huffman reference vectors compress
    /// (regenerable: the exact bytes the Python snippet in the PR used).
    fn reference_plaintext() -> Vec<u8> {
        let mut plain = Vec::new();
        for i in 0..120u64 {
            plain.extend_from_slice(
                format!(
                    "SELECT COUNT(*) FROM census WHERE census.age <= {} AND \
                     census.income = '{}K' -- card={}\n",
                    i * 7 % 97,
                    i * 13 % 50,
                    i * i % 9973
                )
                .as_bytes(),
            );
        }
        plain
    }

    /// zlib level 9 emits dynamic-Huffman blocks for this input; the
    /// inflater must decode what real tools produce, not just its own
    /// fixed-Huffman encoder output.
    #[test]
    fn decodes_dynamic_huffman_zlib_stream() {
        assert_eq!(zlib_decode(ZLIB_DYNAMIC).unwrap(), reference_plaintext());
    }

    /// Stock `gzip` writes an FNAME header field (and dynamic blocks);
    /// both must decode — this is the shape of a real `curl
    /// --data-binary @wl.sql.gz` upload.
    #[test]
    fn decodes_gzip_with_fname_and_dynamic_blocks() {
        assert_eq!(gunzip(GZIP_DYNAMIC_FNAME).unwrap(), reference_plaintext());
    }

    /// All optional RFC 1952 header fields at once (FEXTRA + FNAME +
    /// FCOMMENT + FHCRC), spliced around our own encoder's payload.
    #[test]
    fn gunzip_skips_all_optional_header_fields() {
        let data = b"header-field soup should not confuse the decoder";
        let mut enc = Encoder::new(Vec::new(), Coding::Gzip);
        enc.write_all(data).unwrap();
        let framed = enc.finish().unwrap();
        let (payload, trailer) = framed[10..].split_at(framed.len() - 18);
        let mut fancy = vec![0x1F, 0x8B, 0x08, 0x1E, 0, 0, 0, 0, 0, 0xFF];
        fancy.extend_from_slice(&[4, 0, b'x', b't', b'r', b'a']); // FEXTRA
        fancy.extend_from_slice(b"wl.sql\0"); // FNAME
        fancy.extend_from_slice(b"a comment\0"); // FCOMMENT
        fancy.extend_from_slice(&[0xAB, 0xCD]); // FHCRC (unverified)
        fancy.extend_from_slice(payload);
        fancy.extend_from_slice(trailer);
        assert_eq!(gunzip(&fancy).unwrap(), data);
        // Reserved FLG bits must still be rejected.
        let mut reserved = framed.clone();
        reserved[3] = 0x20;
        assert!(gunzip(&reserved).is_err());
    }
}
