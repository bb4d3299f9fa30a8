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
/// queue when the block is used up.
#[derive(Debug, Default)]
pub(crate) struct BlockCursor {
    /// The block's encoded records, its padding cut off.
    buf: Vec<u8>,
    /// Byte offset of the next record.
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

    /// The next record, `None` once the block is used up.
    #[inline]
    pub(crate) fn next_record(&mut self) -> Option<Record> {
        let chunk = self.buf.get(self.pos..self.pos + RECORD_BYTES)?;
        self.pos += RECORD_BYTES;
        let key = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte key"));
        let rid = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte rid"));
        Some(Record::new(key, rid))
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
        let decoded: Vec<Record> = std::iter::from_fn(|| cursor.next_record()).collect();
        assert_eq!(decoded, records);
        assert_eq!(cursor.next_record(), None);
        assert_eq!(cursor.take_buf().capacity(), block_bytes(10));
    }
}
