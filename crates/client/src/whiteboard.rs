//! Client-side whiteboard state: the portal's "chat and whiteboard tools
//! to further assist collaboration" (§4.1).
//!
//! Every member of a collaboration group reconstructs the shared canvas
//! from the stroke updates it receives; because the server fans strokes
//! out in a single order per client and strokes are only appended (plus
//! whole-canvas clears), all members converge to the same picture.

use wire::{UserId, WhiteboardStroke};

/// One rendered stroke with its author.
#[derive(Clone, Debug, PartialEq)]
pub struct CanvasStroke {
    /// Who drew it.
    pub author: UserId,
    /// The polyline and color.
    pub stroke: WhiteboardStroke,
}

/// A reconstructed shared whiteboard canvas.
#[derive(Clone, Debug, Default)]
pub struct Whiteboard {
    strokes: Vec<CanvasStroke>,
}

impl Whiteboard {
    /// An empty canvas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a stroke update received from the group.
    pub fn apply(&mut self, author: UserId, stroke: WhiteboardStroke) {
        // Degenerate strokes (no points) act as an author-scoped eraser:
        // the convention DISCOVER portals use for "undo my drawings".
        if stroke.points.is_empty() {
            self.strokes.retain(|s| s.author != author);
        } else {
            self.strokes.push(CanvasStroke { author, stroke });
        }
    }

    /// All strokes in application order.
    pub fn strokes(&self) -> &[CanvasStroke] {
        &self.strokes
    }

    /// Bounding box of everything drawn, if anything is.
    pub fn bounds(&self) -> Option<(f32, f32, f32, f32)> {
        let mut it = self.strokes.iter().flat_map(|s| s.stroke.points.iter());
        let first = it.next()?;
        let (mut x0, mut y0, mut x1, mut y1) = (first.0, first.1, first.0, first.1);
        for &(x, y) in it {
            x0 = x0.min(x);
            y0 = y0.min(y);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        Some((x0, y0, x1, y1))
    }

    /// A deterministic fingerprint of the canvas, for convergence checks
    /// between group members (order- and content-sensitive).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x100000001b3);
        };
        for s in &self.strokes {
            for byte in s.author.as_str().bytes() {
                mix(byte as u64);
            }
            mix(s.stroke.color as u64);
            for &(x, y) in &s.stroke.points {
                mix(x.to_bits() as u64);
                mix(y.to_bits() as u64);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stroke(points: Vec<(f32, f32)>, color: u32) -> WhiteboardStroke {
        WhiteboardStroke { points, color }
    }

    #[test]
    fn strokes_accumulate_in_order() {
        let mut wb = Whiteboard::new();
        wb.apply(UserId::new("a"), stroke(vec![(0.1, 0.2)], 1));
        wb.apply(UserId::new("b"), stroke(vec![(0.3, 0.4), (0.5, 0.6)], 2));
        assert_eq!(wb.strokes().len(), 2);
        assert_eq!(wb.strokes.iter().map(|s| s.stroke.points.len()).sum::<usize>(), 3);
        assert_eq!(wb.strokes.iter().filter(|s| s.author.as_str() == "a").count(), 1);
    }

    #[test]
    fn empty_stroke_erases_author_only() {
        let mut wb = Whiteboard::new();
        wb.apply(UserId::new("a"), stroke(vec![(0.1, 0.1)], 1));
        wb.apply(UserId::new("b"), stroke(vec![(0.2, 0.2)], 2));
        wb.apply(UserId::new("a"), stroke(vec![(0.3, 0.3)], 1));
        wb.apply(UserId::new("a"), stroke(vec![], 0)); // a's eraser
        assert_eq!(wb.strokes().len(), 1);
        assert_eq!(wb.strokes()[0].author, UserId::new("b"));
    }

    #[test]
    fn bounds_cover_all_points() {
        let mut wb = Whiteboard::new();
        assert_eq!(wb.bounds(), None);
        wb.apply(UserId::new("a"), stroke(vec![(0.1, 0.9), (0.5, 0.2)], 1));
        wb.apply(UserId::new("b"), stroke(vec![(0.8, 0.4)], 2));
        assert_eq!(wb.bounds(), Some((0.1, 0.2, 0.8, 0.9)));
    }

    #[test]
    fn fingerprints_converge_iff_same_history() {
        let mut a = Whiteboard::new();
        let mut b = Whiteboard::new();
        for wb in [&mut a, &mut b] {
            wb.apply(UserId::new("x"), stroke(vec![(0.1, 0.1)], 7));
            wb.apply(UserId::new("y"), stroke(vec![(0.2, 0.2)], 8));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.apply(UserId::new("x"), stroke(vec![(0.9, 0.9)], 7));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
