//! On-device block format.
//!
//! A block holds `records_per_block` fixed-width records; a record is its
//! sort key followed by its record id, both little-endian `u64`s. The
//! final block of a run may be partially filled — the unused tail is
//! zeroed on write and ignored on read (the reader knows each run's
//! record count).

use pm_extsort::Record;

/// Bytes one encoded [`Record`] occupies.
pub const RECORD_BYTES: usize = 16;

/// Largest block [`MergeEngine::new`](crate::MergeEngine::new) accepts:
/// 16 MiB (1 Mi records), far above the 512 B / 640 B defaults and the
/// paper's 4 KiB, so one block buffer's allocation stays bounded.
pub const MAX_BLOCK_BYTES: usize = 1 << 24;

/// Bytes one block occupies for the given records-per-block factor.
#[must_use]
pub fn block_bytes(records_per_block: u32) -> usize {
    records_per_block as usize * RECORD_BYTES
}

/// Encodes `records` into `buf` (zero-padding the tail). `buf` must hold
/// at least `records.len() * RECORD_BYTES` bytes.
///
/// # Panics
///
/// Panics if `buf` is too small.
pub fn encode_records(records: &[Record], buf: &mut [u8]) {
    assert!(
        buf.len() >= records.len() * RECORD_BYTES,
        "buffer too small"
    );
    let (used, tail) = buf.split_at_mut(records.len() * RECORD_BYTES);
    for (chunk, rec) in used.chunks_exact_mut(RECORD_BYTES).zip(records) {
        chunk[..8].copy_from_slice(&rec.key.to_le_bytes());
        chunk[8..].copy_from_slice(&rec.rid.to_le_bytes());
    }
    tail.fill(0);
}

/// A merge cursor over one block's records, read straight out of the
/// block's bytes: the engine merges from the payload buffer a completion
/// delivered, with no decoded copy, and hands the buffer back to the
/// queue when the block is used up. The cursor's head is the record at
/// `pos`; the merge reads its key for the loser tree's replay, its rid
/// only to break a tie, and copies the whole record once, into the
/// output.
#[derive(Debug, Default)]
pub(crate) struct BlockCursor {
    /// The block's encoded records, its padding cut off.
    buf: Vec<u8>,
    /// Byte offset of the head record.
    pos: usize,
}

impl BlockCursor {
    /// A cursor over the first `count` records encoded in `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` holds fewer than `count` records.
    pub(crate) fn new(mut buf: Vec<u8>, count: usize) -> Self {
        assert!(buf.len() >= count * RECORD_BYTES, "buffer too small");
        buf.truncate(count * RECORD_BYTES);
        BlockCursor { buf, pos: 0 }
    }

    /// The head record's key, `None` once the block is used up.
    #[inline]
    pub(crate) fn key(&self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().expect("8-byte key")))
    }

    /// The head record, `None` once the block is used up.
    #[inline]
    pub(crate) fn head(&self) -> Option<Record> {
        let chunk = self.buf.get(self.pos..self.pos + RECORD_BYTES)?;
        let key = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte key"));
        let rid = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte rid"));
        Some(Record::new(key, rid))
    }

    /// Moves past the head record.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.pos += RECORD_BYTES;
    }

    /// Takes the block's buffer, leaving an empty cursor.
    pub(crate) fn take_buf(&mut self) -> Vec<u8> {
        std::mem::take(self).buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_partial_tail() {
        let records: Vec<Record> = (0..7).map(|i| Record::new(i * 3, 100 + i)).collect();
        let mut buf = vec![0xAAu8; block_bytes(10)];
        encode_records(&records, &mut buf);
        // The tail past the encoded records is zeroed.
        assert!(buf[7 * RECORD_BYTES..].iter().all(|&b| b == 0));
        let mut cursor = BlockCursor::new(buf, 7);
        let mut decoded = Vec::new();
        while let Some(rec) = cursor.head() {
            assert_eq!(cursor.key(), Some(rec.key));
            decoded.push(rec);
            cursor.advance();
        }
        assert_eq!(decoded, records);
        assert_eq!(cursor.key(), None);
        assert_eq!(cursor.take_buf().capacity(), block_bytes(10));
    }
}
