//! io_uring [`IoQueue`] backend (feature `uring`, Linux only).
//!
//! One ring per disk file, opened `O_DIRECT` with registered
//! page-aligned buffers — one buffer slot per queue-depth entry, so the
//! free-slot list is the depth bound. Reads are `IORING_OP_READ_FIXED`
//! into the slot's buffer; completions are reaped in batches from the
//! CQ rings, blocking on `poll(2)` over the ring fds when the engine
//! asks for more than is ready. Unlike the threaded backends, a disk's
//! completions may arrive out of submission order at depth > 1 — the
//! engine's merge decisions are invariant to that (see the
//! [`crate::ioqueue`] contract). Every request is its own SQE: a
//! registered slot holds one block, so the ring does not join a disk's
//! consecutive requests into one read the way [`crate::ThreadedQueue`]
//! does.
//!
//! The raw ABI (setup/enter/register syscalls, ring memory maps, SQE и
//! CQE layouts) is used directly so no external crate is needed; the
//! layouts are the stable io_uring v1 ABI present since Linux 5.1.
//! Every `unsafe` block states the invariant it relies on (`SAFETY:`).

#![warn(clippy::undocumented_unsafe_blocks)]

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::collections::VecDeque;
use std::ffi::c_void;
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use pm_core::{ConfigError, PmError};
use pm_disk::{BlockAddr, DiskId};

use crate::device::DIRECT_ALIGN;
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest};
use crate::workers::{refill, since};

const SYS_IO_URING_SETUP: i64 = 425;
const SYS_IO_URING_ENTER: i64 = 426;
const SYS_IO_URING_REGISTER: i64 = 427;

const IORING_ENTER_GETEVENTS: u32 = 1;
const IORING_REGISTER_BUFFERS: u32 = 0;
const IORING_OP_READ_FIXED: u8 = 4;
const IORING_FEAT_SINGLE_MMAP: u32 = 0x1;

const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_CQ_RING: i64 = 0x0800_0000;
const IORING_OFF_SQES: i64 = 0x1000_0000;

const PROT_READ_WRITE: i32 = 0x3;
const MAP_SHARED_POPULATE: i32 = 0x8001;
const O_DIRECT: i32 = 0o040000;
const POLLIN: i16 = 0x1;

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn close(fd: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct SqOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct CqOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Params {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqOffsets,
    cq_off: CqOffsets,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Sqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    rw_flags: u32,
    user_data: u64,
    buf_index: u16,
    personality: u16,
    splice_fd_in: i32,
    pad: [u64; 2],
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Cqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

#[repr(C)]
struct Iovec {
    iov_base: *mut c_void,
    iov_len: usize,
}

/// Whether this kernel can set up an io_uring instance (the runtime
/// probe behind the CLI's graceful fallback).
#[must_use]
pub fn uring_available() -> bool {
    let mut params = Params::default();
    // SAFETY: the kernel writes only `params`, live across the call.
    let fd = unsafe {
        syscall(
            SYS_IO_URING_SETUP,
            2i64,
            std::ptr::addr_of_mut!(params) as i64,
        )
    };
    if fd < 0 {
        return false;
    }
    // SAFETY: the probe's own ring, closed once.
    unsafe {
        close(fd as i32);
    }
    true
}

/// What one submitted request is waiting on: the echo fields for its
/// completion, keyed by the buffer slot the read lands in.
struct Slot {
    tag: u64,
    span: u64,
    hint: bool,
    disk: u16,
    submitted: Instant,
    started: Instant,
}

/// One disk's io_uring: ring fd, mapped SQ/CQ/SQE memory, the
/// registered buffer arena, and the slot bookkeeping.
struct Ring {
    fd: i32,
    read_file: std::fs::File,
    sq_ptr: *mut u8,
    sq_len: usize,
    cq_ptr: *mut u8,
    /// 0 when the kernel serves SQ and CQ from a single map.
    cq_len: usize,
    sqes: *mut Sqe,
    sqes_len: usize,
    sq_mask: u32,
    cq_mask: u32,
    sq_ktail: *const AtomicU32,
    sq_array: *mut u32,
    cq_khead: *const AtomicU32,
    cq_ktail: *const AtomicU32,
    cqes: *const Cqe,
    buf_base: *mut u8,
    buf_layout: Layout,
    block_bytes: usize,
    disk: u16,
    free: Vec<u16>,
    meta: Vec<Option<Slot>>,
    /// Slots filled into the SQ since the last `enter` (their `started`
    /// stamps land when the kernel takes them).
    pending_slots: Vec<u16>,
    sq_pending: u32,
    inflight: u32,
}

// SAFETY: the raw pointers reference ring maps and an arena this Ring
// alone owns and frees in `Drop`; one thread drives it at a time
// (`IoQueue` takes `&mut self`).
#[allow(unsafe_code)]
unsafe impl Send for Ring {}

impl Ring {
    fn new(
        disk: u16,
        read_file: std::fs::File,
        depth: usize,
        block_bytes: usize,
    ) -> io::Result<Self> {
        let mut params = Params::default();
        // SAFETY: the kernel writes only `params`, live across the call.
        let fd = unsafe {
            syscall(
                SYS_IO_URING_SETUP,
                depth as i64,
                std::ptr::addr_of_mut!(params) as i64,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = fd as i32;
        let single = params.features & IORING_FEAT_SINGLE_MMAP != 0;
        let sq_ring_len =
            params.sq_off.array as usize + params.sq_entries as usize * size_of::<u32>();
        let cq_ring_len =
            params.cq_off.cqes as usize + params.cq_entries as usize * size_of::<Cqe>();
        let sq_len = if single {
            sq_ring_len.max(cq_ring_len)
        } else {
            sq_ring_len
        };
        let map = |len: usize, off: i64| -> io::Result<*mut u8> {
            // SAFETY: a null hint maps the ring at a fresh address, so no
            // existing memory is touched; failure is checked below.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ_WRITE,
                    MAP_SHARED_POPULATE,
                    fd,
                    off,
                )
            };
            if p as i64 == -1 {
                let e = io::Error::last_os_error();
                // SAFETY: the ring is not yet owned by a `Ring`; closed once.
                unsafe { close(fd) };
                return Err(e);
            }
            Ok(p.cast())
        };
        let sq_ptr = map(sq_len, IORING_OFF_SQ_RING)?;
        let (cq_ptr, cq_len) = if single {
            (sq_ptr, 0)
        } else {
            (map(cq_ring_len, IORING_OFF_CQ_RING)?, cq_ring_len)
        };
        let sqes_len = params.sq_entries as usize * size_of::<Sqe>();
        let sqes: *mut Sqe = map(sqes_len, IORING_OFF_SQES)?.cast();

        // One registered buffer per depth slot, page-aligned for
        // O_DIRECT.
        let buf_layout = Layout::from_size_align(block_bytes * depth, 4096)
            .map_err(|e| io::Error::other(format!("buffer layout: {e}")))?;
        // SAFETY: non-zero size: `create` refuses a zero `block_bytes` and
        // clamps `depth` to at least 1.
        let buf_base = unsafe { alloc_zeroed(buf_layout) };
        if buf_base.is_null() {
            // SAFETY: the ring is not yet owned by a `Ring`; closed once.
            unsafe { close(fd) };
            return Err(io::Error::other("registered-buffer allocation failed"));
        }
        let iovecs: Vec<Iovec> = (0..depth)
            .map(|s| Iovec {
                // SAFETY: slot `s < depth` starts inside the arena.
                iov_base: unsafe { buf_base.add(s * block_bytes) }.cast(),
                iov_len: block_bytes,
            })
            .collect();
        // SAFETY: `iovecs` outlives the call and names `depth` arena slots;
        // the arena stays allocated until `Drop` has closed the ring.
        let rc = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                i64::from(fd),
                i64::from(IORING_REGISTER_BUFFERS),
                iovecs.as_ptr() as i64,
                depth as i64,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            // SAFETY: registration failed, so the kernel holds no arena
            // slot; neither is owned by a `Ring` yet, so each goes once.
            unsafe {
                close(fd);
                dealloc(buf_base, buf_layout);
            }
            return Err(e);
        }

        let sq = params.sq_off;
        let cq = params.cq_off;
        // The kernel places every `sq_off`/`cq_off` offset inside the maps,
        // which were sized from those offsets and live until `Drop`.
        Ok(Ring {
            fd,
            read_file,
            sq_ptr,
            sq_len,
            cq_ptr,
            cq_len,
            sqes,
            sqes_len,
            // SAFETY: the SQ mask word lies in the SQ map, fixed at setup.
            sq_mask: unsafe { *sq_ptr.add(sq.ring_mask as usize).cast::<u32>() },
            // SAFETY: the CQ mask word lies in the CQ map, fixed at setup.
            cq_mask: unsafe { *cq_ptr.add(cq.ring_mask as usize).cast::<u32>() },
            sq_ktail: sq_ptr.wrapping_add(sq.tail as usize).cast(),
            sq_array: sq_ptr.wrapping_add(sq.array as usize).cast(),
            cq_khead: cq_ptr.wrapping_add(cq.head as usize).cast(),
            cq_ktail: cq_ptr.wrapping_add(cq.tail as usize).cast(),
            cqes: cq_ptr.wrapping_add(cq.cqes as usize).cast(),
            buf_base,
            buf_layout,
            block_bytes,
            disk,
            free: (0..depth as u16).rev().collect(),
            meta: (0..depth).map(|_| None).collect(),
            pending_slots: Vec::with_capacity(depth),
            sq_pending: 0,
            inflight: 0,
        })
    }

    /// Fills the next SQE with a READ_FIXED into `slot`'s buffer. The
    /// caller guarantees a free SQ entry (slots bound outstanding +
    /// pending to the ring size).
    fn push_sqe(&mut self, slot: u16, req: &IoRequest) {
        // SAFETY: `sq_ktail` points into the live SQ map; only this thread
        // writes the SQ tail, so a relaxed load reads its own last store.
        let tail = unsafe { (*self.sq_ktail).load(Ordering::Relaxed) };
        let idx = (tail & self.sq_mask) as usize;
        // SAFETY: `idx` is masked into the SQE and index arrays and the
        // caller guarantees the entry is free; the slot's buffer lies in
        // the arena and no other SQE names it. The release store of the
        // tail publishes the entry only after it is written.
        unsafe {
            *self.sqes.add(idx) = Sqe {
                opcode: IORING_OP_READ_FIXED,
                flags: 0,
                ioprio: 0,
                fd: self.read_file.as_raw_fd(),
                off: req.req.start.0 * self.block_bytes as u64,
                addr: self.buf_base.add(slot as usize * self.block_bytes) as u64,
                len: self.block_bytes as u32,
                rw_flags: 0,
                user_data: u64::from(slot),
                buf_index: slot,
                personality: 0,
                splice_fd_in: 0,
                pad: [0; 2],
            };
            *self.sq_array.add(idx) = idx as u32;
            (*self.sq_ktail).store(tail.wrapping_add(1), Ordering::Release);
        }
        self.meta[slot as usize] = Some(Slot {
            tag: req.req.tag,
            span: req.span,
            hint: req.req.sequential_hint,
            disk: self.disk,
            submitted: req.submitted,
            started: req.submitted,
        });
        self.pending_slots.push(slot);
        self.sq_pending += 1;
        self.inflight += 1;
    }

    /// Hands pending SQEs to the kernel; with `min_complete > 0` also
    /// waits until that many completions are posted.
    fn enter(&mut self, min_complete: u32) -> io::Result<()> {
        let to_submit = self.sq_pending;
        if to_submit == 0 && min_complete == 0 {
            return Ok(());
        }
        let flags = if min_complete > 0 {
            IORING_ENTER_GETEVENTS
        } else {
            0
        };
        loop {
            // SAFETY: integer arguments only; the ring fd is open.
            let rc = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    i64::from(self.fd),
                    i64::from(to_submit),
                    i64::from(min_complete),
                    i64::from(flags),
                    0i64,
                    0i64,
                )
            };
            if rc >= 0 {
                if (rc as u32) < to_submit {
                    return Err(io::Error::other(format!(
                        "ring accepted {rc} of {to_submit} submissions"
                    )));
                }
                let started = Instant::now();
                for &slot in &self.pending_slots {
                    if let Some(meta) = self.meta[slot as usize].as_mut() {
                        meta.started = started;
                    }
                }
                self.pending_slots.clear();
                self.sq_pending = 0;
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Drains every posted CQE into `ready`, copying each payload into a
    /// buffer from `spare` (a new one when it is empty); returns how
    /// many.
    fn drain_cq(
        &mut self,
        epoch: Instant,
        ready: &mut VecDeque<IoCompletion>,
        spare: &mut Vec<Vec<u8>>,
    ) -> usize {
        let mut n = 0;
        loop {
            // SAFETY: both point into the live CQ map; only this thread
            // writes the head, and the acquire load of the kernel's tail
            // makes every CQE before it visible.
            let (head, tail) = unsafe {
                (
                    (*self.cq_khead).load(Ordering::Relaxed),
                    (*self.cq_ktail).load(Ordering::Acquire),
                )
            };
            if head == tail {
                return n;
            }
            // SAFETY: the masked index is a posted CQE (`head != tail`);
            // it is copied out before the release store hands it back.
            let cqe = unsafe {
                let cqe = *self.cqes.add((head & self.cq_mask) as usize);
                (*self.cq_khead).store(head.wrapping_add(1), Ordering::Release);
                cqe
            };
            let slot = cqe.user_data as u16;
            let meta = self.meta[slot as usize]
                .take()
                .expect("completion for an empty slot");
            let data = if cqe.res < 0 {
                Err(io::Error::from_raw_os_error(-cqe.res))
            } else if cqe.res as usize != self.block_bytes {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("short read: {} of {} bytes", cqe.res, self.block_bytes),
                ))
            } else {
                // SAFETY: the slot's buffer is `block_bytes` long inside
                // the `buf_base` allocation, and its CQE is posted, so the
                // kernel has finished writing it and no SQE names the slot
                // until it is back on the free list below.
                let block = unsafe {
                    std::slice::from_raw_parts(
                        self.buf_base.add(slot as usize * self.block_bytes),
                        self.block_bytes,
                    )
                };
                Ok(refill(spare.pop(), block))
            };
            let finished = Instant::now();
            ready.push_back(IoCompletion {
                disk: meta.disk,
                tag: meta.tag,
                span: meta.span,
                hint: meta.hint,
                injected: None,
                submitted_ns: since(epoch, meta.submitted),
                started_ns: since(epoch, meta.started),
                finished_ns: since(epoch, finished),
                data,
            });
            self.free.push(slot);
            self.inflight -= 1;
            n += 1;
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // SAFETY: each map goes with its mapped length (`cq_len` is 0 when
        // the CQ shares the SQ map), the fd once, the arena with its layout.
        unsafe {
            munmap(self.sqes.cast(), self.sqes_len);
            if self.cq_len > 0 {
                munmap(self.cq_ptr.cast(), self.cq_len);
            }
            munmap(self.sq_ptr.cast(), self.sq_len);
            close(self.fd);
            // The kernel pins registered-buffer pages independently of
            // this mapping; freeing after the ring is gone is safe even
            // if requests were abandoned in flight.
            dealloc(self.buf_base, self.buf_layout);
        }
    }
}

/// The io_uring [`IoQueue`]: one `O_DIRECT` ring per disk file with
/// registered buffers, completing out of order at depth > 1.
pub struct UringQueue {
    block_bytes: usize,
    depth: usize,
    paths: Vec<PathBuf>,
    write_files: Vec<std::fs::File>,
    rings: Vec<Ring>,
    ready: VecDeque<IoCompletion>,
    /// Recycled payload buffers, refilled as completions are drained.
    spare: Vec<Vec<u8>>,
    /// Scratch for the `poll(2)` descriptor set.
    poll_fds: Vec<PollFd>,
    epoch: Instant,
    opened: bool,
}

impl UringQueue {
    /// Creates (truncating) one backing file per disk under `dir` and
    /// plans rings of `depth` entries per disk (built at open).
    ///
    /// # Errors
    ///
    /// [`ConfigError::BlockAlignment`] when `block_bytes` is not a
    /// positive multiple of [`DIRECT_ALIGN`]; [`PmError::Device`] on
    /// any file-creation failure.
    pub fn create(
        dir: &Path,
        disks: usize,
        block_bytes: usize,
        depth: usize,
    ) -> Result<Self, PmError> {
        if block_bytes == 0 || block_bytes % DIRECT_ALIGN != 0 {
            return Err(ConfigError::BlockAlignment {
                block_bytes,
                required: DIRECT_ALIGN,
            }
            .into());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| PmError::device("uring", format!("creating {}", dir.display()), e))?;
        let mut paths = Vec::with_capacity(disks);
        let mut write_files = Vec::with_capacity(disks);
        for d in 0..disks {
            let path = dir.join(format!("disk-{d:02}.bin"));
            let file = std::fs::File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| PmError::device("uring", format!("creating {}", path.display()), e))?;
            paths.push(path);
            write_files.push(file);
        }
        Ok(UringQueue {
            block_bytes,
            depth: depth.max(1),
            paths,
            write_files,
            rings: Vec::new(),
            ready: VecDeque::new(),
            spare: Vec::new(),
            poll_fds: Vec::new(),
            epoch: Instant::now(),
            opened: false,
        })
    }
}

impl IoQueue for UringQueue {
    fn backend(&self) -> &'static str {
        "uring"
    }

    fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    fn disks(&self) -> usize {
        self.paths.len()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        if self.opened {
            return Err(io::Error::other(
                "writes are setup-only: load the queue before open()",
            ));
        }
        crate::device::check_extent_len("write", data.len(), self.block_bytes)?;
        let file = self
            .write_files
            .get(disk.0 as usize)
            .ok_or_else(|| io::Error::other(format!("no such disk {}", disk.0)))?;
        file.write_all_at(data, start.0 * self.block_bytes as u64)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        use std::os::unix::fs::OpenOptionsExt;
        if self.opened {
            return Ok(());
        }
        // Direct reads bypass the page cache; flush the buffered loads
        // to the backing store first.
        for file in &self.write_files {
            file.sync_data()?;
        }
        let mut rings = Vec::with_capacity(self.paths.len());
        for (d, path) in self.paths.iter().enumerate() {
            let read_file = std::fs::File::options()
                .read(true)
                .custom_flags(O_DIRECT)
                .open(path)?;
            rings.push(Ring::new(
                d as u16,
                read_file,
                self.depth,
                self.block_bytes,
            )?);
        }
        self.rings = rings;
        self.epoch = epoch;
        self.opened = true;
        Ok(())
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        if !self.opened {
            return Err(io::Error::other("queue not opened"));
        }
        let epoch = self.epoch;
        for req in reqs {
            let d = req.req.disk.0 as usize;
            let ring = self
                .rings
                .get_mut(d)
                .ok_or_else(|| io::Error::other(format!("no such disk {d}")))?;
            // Depth backpressure: with every buffer slot in flight,
            // submit what's pending and wait for one completion.
            while ring.free.is_empty() {
                ring.enter(1)?;
                ring.drain_cq(epoch, &mut self.ready, &mut self.spare);
            }
            let slot = ring.free.pop().expect("free slot");
            ring.push_sqe(slot, req);
        }
        for ring in &mut self.rings {
            ring.enter(0)?;
        }
        Ok(())
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        if !self.opened {
            return Err(io::Error::other("queue not opened"));
        }
        let epoch = self.epoch;
        for ring in &mut self.rings {
            ring.drain_cq(epoch, &mut self.ready, &mut self.spare);
        }
        while self.ready.len() < min_wait {
            let fds = &mut self.poll_fds;
            fds.clear();
            fds.extend(
                self.rings
                    .iter()
                    .filter(|r| r.inflight > 0)
                    .map(|r| PollFd {
                        fd: r.fd,
                        events: POLLIN,
                        revents: 0,
                    }),
            );
            if fds.is_empty() {
                return Err(io::Error::other(format!(
                    "waiting for {min_wait} completions with only {} in flight",
                    self.ready.len()
                )));
            }
            // SAFETY: `fds` holds `fds.len()` live entries; the kernel
            // writes only their `revents`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, -1) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for ring in &mut self.rings {
                ring.drain_cq(epoch, &mut self.ready, &mut self.spare);
            }
        }
        let n = self.ready.len();
        out.extend(self.ready.drain(..));
        Ok(n)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.spare.push(buf);
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.rings.clear();
        self.ready.clear();
        self.opened = false;
        Ok(())
    }
}
