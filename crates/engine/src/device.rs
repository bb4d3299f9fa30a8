//! The [`BlockDevice`] abstraction and its three backends.
//!
//! A block device is an array of `D` independent disks addressed by
//! `(disk, block)`. The engine requests one block at a time, exactly as
//! the simulator models, but moves data by extent: it loads each run
//! extent with one write of consecutive blocks, and a worker reads each
//! run of queued requests for consecutive blocks of one disk with one
//! read. Three backends implement it:
//!
//! * [`MemoryDevice`] — blocks live in per-disk `Vec<u8>`s. The golden
//!   reference: zero latency, no OS involvement.
//! * [`FileDevice`] — one file per simulated disk, positioned reads via
//!   `read_at`. Point it at tmpfs for a fast smoke test or at real
//!   spindles for real measurements.
//! * [`LatencyDevice`] — wraps another backend and injects the
//!   deterministic per-request delay the pm-disk seek/rotation model
//!   computes, enabling sim-vs-engine cross-validation: the injected
//!   service breakdowns are bit-identical to the simulator's for the
//!   same request sequence.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use pm_core::{ConfigError, NullSink, PmError};
use pm_disk::{
    BlockAddr, DiskArray, DiskId, DiskRequest, DiskSpec, QueueDiscipline, ServiceBreakdown,
};
use pm_sim::SimTime;

/// The alignment direct I/O requires of block sizes and buffers: the
/// logical sector size `O_DIRECT` transfers must be a multiple of.
pub const DIRECT_ALIGN: usize = 512;

#[cfg(target_os = "linux")]
const O_DIRECT: i32 = 0o040000;

/// The service a [`LatencyDevice`] computed for one request.
#[derive(Debug, Clone, Copy)]
pub struct InjectedService {
    /// Seek / rotational-latency / transfer decomposition.
    pub breakdown: ServiceBreakdown,
    /// Whether the request streamed sequentially (no seek or latency).
    pub sequential: bool,
}

/// A `D`-disk array of block storage.
///
/// Reads take `&self` so I/O worker threads can issue them concurrently;
/// writes (`&mut self`) happen only during single-threaded setup, before
/// the device is shared.
pub trait BlockDevice: Send + Sync {
    /// Bytes per block.
    fn block_bytes(&self) -> usize;

    /// Number of disks.
    fn disks(&self) -> usize;

    /// Reads `buf` — one or more whole blocks — from consecutive
    /// addresses from `start` on `disk`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `buf` is empty or not a whole
    /// number of blocks (nothing is read); any I/O failure, including
    /// reading a block that was never written.
    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()>;

    /// Writes `data` — one or more whole blocks — at consecutive
    /// addresses from `start` on `disk` (setup only).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `data` is empty or not a
    /// whole number of blocks (nothing is written); any I/O failure.
    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()>;

    /// The mechanical service this request would cost, if this backend
    /// models one. The default (memory, file) models none: requests
    /// complete as fast as the host executes them.
    fn service_timing(&self, _req: &DiskRequest) -> Option<InjectedService> {
        None
    }
}

/// Checks a [`BlockDevice::read_block`] / [`BlockDevice::write_block`] /
/// [`crate::IoQueue::write_block`] buffer of `len` bytes: one or more
/// whole blocks of `block_bytes`. `op` names the call in the error.
pub(crate) fn check_extent_len(op: &str, len: usize, block_bytes: usize) -> io::Result<()> {
    if len == 0 || block_bytes == 0 || len % block_bytes != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{op} of {len} bytes is not a whole number of {block_bytes}-byte blocks"),
        ));
    }
    Ok(())
}

/// In-memory backend: per-disk byte vectors, grown on write.
#[derive(Debug)]
pub struct MemoryDevice {
    block_bytes: usize,
    disks: Vec<Vec<u8>>,
}

impl MemoryDevice {
    /// An empty `disks`-disk array with the given block size.
    #[must_use]
    pub fn new(disks: usize, block_bytes: usize) -> Self {
        MemoryDevice {
            block_bytes,
            disks: vec![Vec::new(); disks],
        }
    }
}

impl BlockDevice for MemoryDevice {
    fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    fn disks(&self) -> usize {
        self.disks.len()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        check_extent_len("read", buf.len(), self.block_bytes)?;
        let offset = start.0 as usize * self.block_bytes;
        let storage = self
            .disks
            .get(disk.0 as usize)
            .ok_or_else(|| io::Error::other(format!("no such disk {}", disk.0)))?;
        let end = offset + buf.len();
        if end > storage.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read of unwritten block {} on disk {}", start.0, disk.0),
            ));
        }
        buf.copy_from_slice(&storage[offset..end]);
        Ok(())
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        check_extent_len("write", data.len(), self.block_bytes)?;
        let offset = start.0 as usize * self.block_bytes;
        let storage = self
            .disks
            .get_mut(disk.0 as usize)
            .ok_or_else(|| io::Error::other(format!("no such disk {}", disk.0)))?;
        if storage.len() < offset {
            storage.resize(offset, 0);
        }
        // Append what lies past the end rather than zero-filling it
        // first: an extent is written once, not twice.
        let overlap = (storage.len() - offset).min(data.len());
        storage[offset..offset + overlap].copy_from_slice(&data[..overlap]);
        storage.extend_from_slice(&data[overlap..]);
        Ok(())
    }
}

/// File-backed backend: one regular file per simulated disk
/// (`disk-00.bin`, `disk-01.bin`, …) under a caller-chosen directory,
/// read with positioned `read_at` so concurrent workers never share a
/// file cursor.
#[derive(Debug)]
pub struct FileDevice {
    block_bytes: usize,
    paths: Vec<PathBuf>,
    files: Vec<std::fs::File>,
    /// Page-cache-bypassing read handles, when opened with
    /// [`FileDevice::create_direct`].
    direct: Option<Vec<std::fs::File>>,
    /// Buffered writes since the last direct read: direct reads flush
    /// them first so they never race the page cache.
    dirty: AtomicBool,
}

impl FileDevice {
    /// Creates (truncating) one backing file per disk under `dir`.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the directory or the files.
    pub fn create(dir: &Path, disks: usize, block_bytes: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(disks);
        let mut files = Vec::with_capacity(disks);
        for d in 0..disks {
            let path = dir.join(format!("disk-{d:02}.bin"));
            let file = std::fs::File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            paths.push(path);
            files.push(file);
        }
        Ok(FileDevice {
            block_bytes,
            paths,
            files,
            direct: None,
            dirty: AtomicBool::new(false),
        })
    }

    /// Like [`FileDevice::create`], but reads bypass the page cache:
    /// each disk gets a second `O_DIRECT` read handle, and read buffers
    /// are bounced through [`DIRECT_ALIGN`]-aligned scratch memory.
    /// Writes stay buffered (loading is setup-time work); the first
    /// read after a write syncs the files so direct reads observe them.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BlockAlignment`] when `block_bytes` is not a
    /// positive multiple of [`DIRECT_ALIGN`]; otherwise any error from
    /// creating or reopening the files.
    #[cfg(target_os = "linux")]
    pub fn create_direct(dir: &Path, disks: usize, block_bytes: usize) -> Result<Self, PmError> {
        if block_bytes == 0 || block_bytes % DIRECT_ALIGN != 0 {
            return Err(ConfigError::BlockAlignment {
                block_bytes,
                required: DIRECT_ALIGN,
            }
            .into());
        }
        let mut dev = Self::create(dir, disks, block_bytes).map_err(|e| {
            PmError::device(
                "file-direct",
                format!("creating files under {}", dir.display()),
                e,
            )
        })?;
        let mut direct = Vec::with_capacity(disks);
        for path in &dev.paths {
            use std::os::unix::fs::OpenOptionsExt;
            let file = std::fs::File::options()
                .read(true)
                .custom_flags(O_DIRECT)
                .open(path)
                .map_err(|e| {
                    PmError::device(
                        "file-direct",
                        format!("opening {} with O_DIRECT", path.display()),
                        e,
                    )
                })?;
            direct.push(file);
        }
        dev.direct = Some(direct);
        Ok(dev)
    }

    /// Unsupported off Linux.
    ///
    /// # Errors
    ///
    /// Always: `O_DIRECT` is Linux-only here.
    #[cfg(not(target_os = "linux"))]
    pub fn create_direct(_dir: &Path, _disks: usize, _block_bytes: usize) -> Result<Self, PmError> {
        Err(PmError::device(
            "file-direct",
            "opening with O_DIRECT",
            io::Error::other("O_DIRECT file device is only supported on Linux"),
        ))
    }

    /// The backing file of `disk`.
    #[must_use]
    pub fn path(&self, disk: DiskId) -> &Path {
        &self.paths[disk.0 as usize]
    }
}

impl BlockDevice for FileDevice {
    fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    fn disks(&self) -> usize {
        self.files.len()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        check_extent_len("read", buf.len(), self.block_bytes)?;
        let offset = start.0 * self.block_bytes as u64;
        if let Some(direct) = &self.direct {
            if self.dirty.swap(false, Ordering::AcqRel) {
                for file in &self.files {
                    file.sync_data()?;
                }
            }
            let file = direct
                .get(disk.0 as usize)
                .ok_or_else(|| io::Error::other(format!("no such disk {}", disk.0)))?;
            // O_DIRECT needs an aligned buffer; bounce the extent through
            // an over-allocated scratch vector sliced at the alignment.
            let mut scratch = vec![0u8; buf.len() + DIRECT_ALIGN];
            let align = (DIRECT_ALIGN - (scratch.as_ptr() as usize % DIRECT_ALIGN)) % DIRECT_ALIGN;
            let aligned = &mut scratch[align..align + buf.len()];
            file.read_exact_at(aligned, offset)?;
            buf.copy_from_slice(aligned);
            return Ok(());
        }
        let file = self
            .files
            .get(disk.0 as usize)
            .ok_or_else(|| io::Error::other(format!("no such disk {}", disk.0)))?;
        file.read_exact_at(buf, offset)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        check_extent_len("write", data.len(), self.block_bytes)?;
        let file = self
            .files
            .get(disk.0 as usize)
            .ok_or_else(|| io::Error::other(format!("no such disk {}", disk.0)))?;
        file.write_all_at(data, start.0 * self.block_bytes as u64)?;
        if self.direct.is_some() {
            self.dirty.store(true, Ordering::Release);
        }
        Ok(())
    }
}

/// Latency-injecting wrapper: data comes from the inner backend, service
/// time from the pm-disk model.
///
/// Each disk is driven on its own virtual clock: a request is submitted
/// to the model at the disk's current virtual instant, serviced
/// immediately (the engine's workers keep per-disk FIFO order and one
/// request in service per disk), and the virtual clock advances to the
/// completion. Seeded identically to the simulator's [`DiskArray`], the
/// per-request breakdown sequence is therefore bit-identical to the
/// simulator's for the same per-disk request sequence under FIFO
/// scheduling.
pub struct LatencyDevice<D> {
    inner: D,
    model: Mutex<LatencyModel>,
}

struct LatencyModel {
    array: DiskArray,
    vnow: Vec<SimTime>,
}

impl<D: BlockDevice> LatencyDevice<D> {
    /// Wraps `inner`, modeling `disks` drives of `spec` with the given
    /// queue discipline and disk-seed (see
    /// [`crate::disk_seed_for`] to mirror a simulation's seed
    /// derivation).
    #[must_use]
    pub fn new(
        inner: D,
        disks: usize,
        spec: DiskSpec,
        discipline: QueueDiscipline,
        disk_seed: u64,
    ) -> Self {
        LatencyDevice {
            inner,
            model: Mutex::new(LatencyModel {
                array: DiskArray::new(disks, spec, discipline, disk_seed),
                vnow: vec![SimTime::ZERO; disks],
            }),
        }
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for LatencyDevice<D> {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_block(disk, start, buf)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.inner.write_block(disk, start, data)
    }

    fn service_timing(&self, req: &DiskRequest) -> Option<InjectedService> {
        let mut m = self.model.lock().expect("latency model poisoned");
        let d = req.disk.0 as usize;
        let now = m.vnow[d];
        let (_, started) = m.array.submit(now, *req, &mut NullSink);
        let s = started.expect("latency disk driven one request at a time");
        let (done, next) = m.array.complete(s.completion_at, req.disk, &mut NullSink);
        debug_assert!(next.is_none(), "latency disk queue must stay empty");
        m.vnow[d] = s.completion_at;
        Some(InjectedService {
            breakdown: done.breakdown,
            sequential: done.sequential,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_device_round_trips_and_rejects_unwritten() {
        let mut dev = MemoryDevice::new(2, 8);
        dev.write_block(DiskId(1), BlockAddr(3), &[7u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        dev.read_block(DiskId(1), BlockAddr(3), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert!(dev.read_block(DiskId(0), BlockAddr(0), &mut buf).is_err());
        assert!(dev.read_block(DiskId(1), BlockAddr(4), &mut buf).is_err());
    }

    /// Every `write_block` length a device must reject: empty, short,
    /// ragged and one byte past a whole number of blocks.
    const BAD_LENGTHS: [usize; 4] = [0, 7, 12, 17];

    #[test]
    fn memory_device_writes_extents_and_rejects_partial_blocks() {
        let mut dev = MemoryDevice::new(1, 8);
        let extent: Vec<u8> = (0..24).collect();
        dev.write_block(DiskId(0), BlockAddr(2), &extent).unwrap();
        let mut buf = [0u8; 8];
        for b in 0..3 {
            dev.read_block(DiskId(0), BlockAddr(2 + b), &mut buf)
                .unwrap();
            assert_eq!(&buf[..], &extent[b as usize * 8..][..8]);
        }
        // An extent that overwrites the last block and runs past it.
        dev.write_block(DiskId(0), BlockAddr(4), &[9; 16]).unwrap();
        for b in [4, 5] {
            dev.read_block(DiskId(0), BlockAddr(b), &mut buf).unwrap();
            assert_eq!(buf, [9; 8]);
        }
        dev.read_block(DiskId(0), BlockAddr(3), &mut buf).unwrap();
        assert_eq!(&buf[..], &extent[8..16]);
        for len in BAD_LENGTHS {
            let err = dev
                .write_block(DiskId(0), BlockAddr(9), &vec![1; len])
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "length {len}");
        }
        // A rejected write leaves the device untouched.
        assert!(dev.read_block(DiskId(0), BlockAddr(9), &mut buf).is_err());
    }

    /// Reads `dev`'s three-block extent `extent` (written at block 2)
    /// back whole and in part, then checks every bad read length fails
    /// with `InvalidInput` before `buf` is touched.
    fn check_extent_reads(dev: &dyn BlockDevice, extent: &[u8]) {
        let bb = dev.block_bytes();
        let mut buf = vec![0u8; 3 * bb];
        dev.read_block(DiskId(0), BlockAddr(2), &mut buf).unwrap();
        assert_eq!(buf, extent);
        let mut buf = vec![0u8; 2 * bb];
        dev.read_block(DiskId(0), BlockAddr(3), &mut buf).unwrap();
        assert_eq!(buf, &extent[bb..]);
        // Running past the written blocks is an error, not a short read.
        let mut buf = vec![0u8; 2 * bb];
        assert!(dev.read_block(DiskId(0), BlockAddr(4), &mut buf).is_err());
        for len in [0, 7, bb + 4, 2 * bb + 1] {
            let mut buf = vec![0xA5; len];
            let err = dev
                .read_block(DiskId(0), BlockAddr(2), &mut buf)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "length {len}");
            assert!(
                buf.iter().all(|&b| b == 0xA5),
                "length {len}: buffer written"
            );
        }
    }

    #[test]
    fn memory_device_reads_extents_and_rejects_partial_buffers() {
        let mut dev = MemoryDevice::new(1, 8);
        let extent: Vec<u8> = (0..24).collect();
        dev.write_block(DiskId(0), BlockAddr(2), &extent).unwrap();
        check_extent_reads(&dev, &extent);
    }

    #[test]
    fn file_device_reads_extents_and_rejects_partial_buffers() {
        let dir = std::env::temp_dir().join(format!("pm-engine-read-{}", std::process::id()));
        let mut dev = FileDevice::create(&dir, 1, 8).unwrap();
        let extent: Vec<u8> = (0..24).collect();
        dev.write_block(DiskId(0), BlockAddr(2), &extent).unwrap();
        check_extent_reads(&dev, &extent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn direct_file_device_reads_extents_and_rejects_partial_buffers() {
        let dir =
            std::env::temp_dir().join(format!("pm-engine-read-direct-{}", std::process::id()));
        let mut dev = match FileDevice::create_direct(&dir, 1, DIRECT_ALIGN) {
            Ok(dev) => dev,
            Err(e) => {
                eprintln!("SKIP: O_DIRECT unavailable under {}: {e}", dir.display());
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        };
        let extent: Vec<u8> = (0..3 * DIRECT_ALIGN).map(|i| (i % 251) as u8).collect();
        dev.write_block(DiskId(0), BlockAddr(2), &extent).unwrap();
        check_extent_reads(&dev, &extent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_device_writes_extents_and_rejects_partial_blocks() {
        let dir = std::env::temp_dir().join(format!("pm-engine-device-{}", std::process::id()));
        let mut dev = FileDevice::create(&dir, 1, 8).unwrap();
        let extent: Vec<u8> = (0..24).collect();
        dev.write_block(DiskId(0), BlockAddr(2), &extent).unwrap();
        let mut buf = [0u8; 8];
        for b in 0..3 {
            dev.read_block(DiskId(0), BlockAddr(2 + b), &mut buf)
                .unwrap();
            assert_eq!(&buf[..], &extent[b as usize * 8..][..8]);
        }
        for len in BAD_LENGTHS {
            let err = dev
                .write_block(DiskId(0), BlockAddr(9), &vec![1; len])
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "length {len}");
        }
        assert_eq!(std::fs::metadata(dev.path(DiskId(0))).unwrap().len(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
