//! Axis-aligned bounding boxes in normalised image coordinates.

/// An axis-aligned bounding box.
///
/// Coordinates are normalised to the frame: `(0, 0)` is the top-left corner and
/// `(1, 1)` the bottom-right, so boxes are resolution-independent.  Boxes produced
/// by localisation noise may poke slightly outside the frame; the
/// IoU arithmetic still works, and `BBox::clamp_to_frame` is available when a
/// strictly in-frame box is required.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x: f64,
    /// Top edge.
    pub y: f64,
    /// Width (must be >= 0).
    pub w: f64,
    /// Height (must be >= 0).
    pub h: f64,
}

impl BBox {
    /// Create a box from its top-left corner and size.
    ///
    /// # Panics
    /// Panics if width or height is negative or non-finite.
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        assert!(w.is_finite() && h.is_finite() && x.is_finite() && y.is_finite());
        assert!(w >= 0.0 && h >= 0.0, "box dimensions must be non-negative");
        BBox { x, y, w, h }
    }

    /// Create a box from its centre point and size.
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        BBox::new(cx - w / 2.0, cy - h / 2.0, w, h)
    }

    /// Right edge.
    pub(crate) fn x2(&self) -> f64 {
        self.x + self.w
    }

    /// Bottom edge.
    pub(crate) fn y2(&self) -> f64 {
        self.y + self.h
    }

    /// Area of the box.
    pub(crate) fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Area of the intersection with another box.
    pub(crate) fn intersection_area(&self, other: &BBox) -> f64 {
        let ix = (self.x2().min(other.x2()) - self.x.max(other.x)).max(0.0);
        let iy = (self.y2().min(other.y2()) - self.y.max(other.y)).max(0.0);
        ix * iy
    }

    /// Intersection over union with another box, in `[0, 1]`.
    ///
    /// Two degenerate (zero-area) boxes have IoU 0 by convention.
    pub fn iou(&self, other: &BBox) -> f64 {
        let inter = self.intersection_area(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Translate the box by `(dx, dy)`.
    pub(crate) fn translated(&self, dx: f64, dy: f64) -> BBox {
        BBox {
            x: self.x + dx,
            y: self.y + dy,
            ..*self
        }
    }

    /// Clamp the box to the unit frame `[0, 1] x [0, 1]`.
    pub(crate) fn clamp_to_frame(&self) -> BBox {
        let x1 = self.x.clamp(0.0, 1.0);
        let y1 = self.y.clamp(0.0, 1.0);
        let x2 = self.x2().clamp(0.0, 1.0);
        let y2 = self.y2().clamp(0.0, 1.0);
        BBox::new(x1, y1, (x2 - x1).max(0.0), (y2 - y1).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let b = BBox::new(0.1, 0.2, 0.3, 0.4);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_of_disjoint_boxes_is_zero() {
        let a = BBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BBox::new(0.5, 0.5, 0.2, 0.2);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_of_half_overlapping_boxes() {
        // Two unit-area squares offset by half their width: intersection 0.5,
        // union 1.5, IoU = 1/3.
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(0.5, 0.0, 1.0, 1.0);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BBox::new(0.1, 0.1, 0.4, 0.3);
        let b = BBox::new(0.3, 0.2, 0.35, 0.4);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-15);
    }

    #[test]
    fn degenerate_boxes_have_zero_iou() {
        let a = BBox::new(0.5, 0.5, 0.0, 0.0);
        let b = BBox::new(0.5, 0.5, 0.0, 0.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn from_center_round_trips() {
        let b = BBox::from_center(0.5, 0.5, 0.2, 0.1);
        assert!((b.x + b.w / 2.0 - 0.5).abs() < 1e-12);
        assert!((b.y + b.h / 2.0 - 0.5).abs() < 1e-12);
        assert!((b.x - 0.4).abs() < 1e-12);
        assert!((b.y - 0.45).abs() < 1e-12);
    }

    #[test]
    fn translated() {
        let b = BBox::new(0.2, 0.2, 0.2, 0.2);
        let t = b.translated(0.1, -0.1);
        assert!((t.x - 0.3).abs() < 1e-12);
        assert!((t.y - 0.1).abs() < 1e-12);
        assert_eq!((t.w, t.h), (b.w, b.h));
    }

    #[test]
    fn clamp_to_frame() {
        let b = BBox::new(-0.1, 0.9, 0.3, 0.3).clamp_to_frame();
        assert!(b.x >= 0.0 && b.y >= 0.0);
        assert!(b.x2() <= 1.0 + 1e-12 && b.y2() <= 1.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_width_panics() {
        let _ = BBox::new(0.0, 0.0, -0.1, 0.1);
    }
}
