//! Queue scheduling disciplines.
//!
//! The paper services each disk's queue strictly FIFO. For the A2 ablation
//! this module also provides shortest-seek-time-first (SSTF) and LOOK
//! (elevator) selection, so the benefit of request reordering under
//! inter-run prefetching can be quantified.

use crate::geometry::Cylinder;

/// How a disk picks the next queued request to service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-in first-out — the paper's model.
    #[default]
    Fifo,
    /// Shortest seek time first: the queued request whose target cylinder
    /// is closest to the current head position (ties broken FIFO).
    Sstf,
    /// LOOK / elevator: continue in the current sweep direction while any
    /// request lies ahead; otherwise reverse (ties at equal distance broken
    /// FIFO).
    Look,
}

/// Sweep direction for [`QueueDiscipline::Look`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepDirection {
    /// Toward higher cylinder numbers.
    #[default]
    Up,
    /// Toward lower cylinder numbers.
    Down,
}

impl QueueDiscipline {
    /// Chooses the index of the next request to service from `targets`
    /// (the queued requests' target cylinders, in FIFO arrival order),
    /// given the current head position and sweep direction.
    ///
    /// Returns the chosen index and the (possibly flipped) sweep direction.
    /// Returns `None` if the queue is empty.
    #[must_use]
    pub fn select(
        self,
        targets: &[Cylinder],
        head: Cylinder,
        direction: SweepDirection,
    ) -> Option<(usize, SweepDirection)> {
        self.select_indexed(targets.len(), |i| targets[i], head, direction)
    }

    /// [`QueueDiscipline::select`] without materializing the cylinder
    /// list: `cylinder_at(i)` maps a queue index to its target cylinder
    /// and is only invoked for disciplines that need positions — FIFO
    /// picks index 0 without computing a single cylinder. This keeps the
    /// per-completion dispatch path allocation-free.
    #[must_use]
    pub fn select_indexed(
        self,
        len: usize,
        cylinder_at: impl Fn(usize) -> Cylinder,
        head: Cylinder,
        direction: SweepDirection,
    ) -> Option<(usize, SweepDirection)> {
        if len == 0 {
            return None;
        }
        match self {
            QueueDiscipline::Fifo => Some((0, direction)),
            QueueDiscipline::Sstf => {
                let mut best = 0usize;
                let mut best_dist = cylinder_at(0).distance(head);
                for i in 1..len {
                    let d = cylinder_at(i).distance(head);
                    if d < best_dist {
                        best = i;
                        best_dist = d;
                    }
                }
                Some((best, direction))
            }
            QueueDiscipline::Look => {
                let ahead = |dir: SweepDirection| -> Option<usize> {
                    let mut best: Option<(usize, u32)> = None;
                    for i in 0..len {
                        let t = cylinder_at(i);
                        let in_sweep = match dir {
                            SweepDirection::Up => t.0 >= head.0,
                            SweepDirection::Down => t.0 <= head.0,
                        };
                        if in_sweep {
                            let d = t.distance(head);
                            if best.map_or(true, |(_, bd)| d < bd) {
                                best = Some((i, d));
                            }
                        }
                    }
                    best.map(|(i, _)| i)
                };
                if let Some(i) = ahead(direction) {
                    Some((i, direction))
                } else {
                    let flipped = match direction {
                        SweepDirection::Up => SweepDirection::Down,
                        SweepDirection::Down => SweepDirection::Up,
                    };
                    // The queue is non-empty, so the flipped sweep always
                    // finds a request.
                    let i = ahead(flipped).expect("non-empty queue must yield a request");
                    Some((i, flipped))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyls(v: &[u32]) -> Vec<Cylinder> {
        v.iter().map(|&c| Cylinder(c)).collect()
    }

    #[test]
    fn empty_queue_selects_none() {
        for d in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Sstf,
            QueueDiscipline::Look,
        ] {
            assert_eq!(d.select(&[], Cylinder(0), SweepDirection::Up), None);
        }
    }

    #[test]
    fn fifo_always_picks_head_of_queue() {
        let targets = cyls(&[50, 1, 100]);
        let (i, _) = QueueDiscipline::Fifo
            .select(&targets, Cylinder(1), SweepDirection::Up)
            .unwrap();
        assert_eq!(i, 0);
    }

    #[test]
    fn sstf_picks_nearest() {
        let targets = cyls(&[50, 10, 100]);
        let (i, _) = QueueDiscipline::Sstf
            .select(&targets, Cylinder(12), SweepDirection::Up)
            .unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn sstf_breaks_ties_fifo() {
        let targets = cyls(&[20, 10]); // both distance 5 from head 15
        let (i, _) = QueueDiscipline::Sstf
            .select(&targets, Cylinder(15), SweepDirection::Up)
            .unwrap();
        assert_eq!(i, 0);
    }

    #[test]
    fn look_continues_upward_sweep() {
        let targets = cyls(&[5, 30, 20]);
        let (i, dir) = QueueDiscipline::Look
            .select(&targets, Cylinder(10), SweepDirection::Up)
            .unwrap();
        assert_eq!(i, 2); // 20 is the nearest at-or-above 10
        assert_eq!(dir, SweepDirection::Up);
    }

    #[test]
    fn look_reverses_when_nothing_ahead() {
        let targets = cyls(&[5, 2]);
        let (i, dir) = QueueDiscipline::Look
            .select(&targets, Cylinder(10), SweepDirection::Up)
            .unwrap();
        assert_eq!(i, 0); // nearest below
        assert_eq!(dir, SweepDirection::Down);
    }

    #[test]
    fn look_includes_current_cylinder_in_sweep() {
        let targets = cyls(&[10]);
        let (i, dir) = QueueDiscipline::Look
            .select(&targets, Cylinder(10), SweepDirection::Down)
            .unwrap();
        assert_eq!(i, 0);
        assert_eq!(dir, SweepDirection::Down);
    }
}
