//! Foreground shapes composited over textured backgrounds: the "object" in
//! each synthetic image, giving the shape features something to measure.

use crate::rng::Pcg32;

/// A parametric filled shape with an inside test in unit coordinates
/// (`0..1` across the image).
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// Filled disc.
    Disc {
        /// Centre x in unit coordinates.
        cx: f32,
        /// Centre y in unit coordinates.
        cy: f32,
        /// Radius in unit coordinates.
        r: f32,
    },
    /// Axis-aligned filled rectangle.
    Rectangle {
        /// Centre x.
        cx: f32,
        /// Centre y.
        cy: f32,
        /// Half-width.
        hw: f32,
        /// Half-height.
        hh: f32,
        /// Rotation in radians.
        angle: f32,
    },
    /// Regular polygon (triangle, square, pentagon, hexagon...).
    Polygon {
        /// Centre x.
        cx: f32,
        /// Centre y.
        cy: f32,
        /// Circumradius.
        r: f32,
        /// Number of sides (>= 3).
        sides: u32,
        /// Rotation in radians.
        angle: f32,
    },
    /// Annulus (disc with a hole).
    Ring {
        /// Centre x.
        cx: f32,
        /// Centre y.
        cy: f32,
        /// Outer radius.
        outer: f32,
        /// Inner radius (< outer).
        inner: f32,
    },
}

impl Shape {
    /// Whether the unit-coordinate point lies inside the shape.
    pub fn contains(&self, x: f32, y: f32) -> bool {
        match *self {
            Shape::Disc { cx, cy, r } => {
                let dx = x - cx;
                let dy = y - cy;
                dx * dx + dy * dy <= r * r
            }
            Shape::Rectangle {
                cx,
                cy,
                hw,
                hh,
                angle,
            } => {
                let (s, c) = angle.sin_cos();
                let dx = x - cx;
                let dy = y - cy;
                let u = dx * c + dy * s;
                let v = -dx * s + dy * c;
                u.abs() <= hw && v.abs() <= hh
            }
            Shape::Polygon {
                cx,
                cy,
                r,
                sides,
                angle,
            } => {
                // Inside iff the point is on the inner side of every edge of
                // the regular polygon.
                let n = sides.max(3);
                let dx = x - cx;
                let dy = y - cy;
                let dist = (dx * dx + dy * dy).sqrt();
                if dist > r {
                    return false;
                }
                // Apothem test in polar form: r_boundary(θ) for a regular
                // polygon with circumradius r.
                let theta = dy.atan2(dx) - angle;
                let sector = std::f32::consts::TAU / n as f32;
                let local = theta.rem_euclid(sector) - sector / 2.0;
                let boundary = r * (sector / 2.0).cos() / local.cos();
                dist <= boundary
            }
            Shape::Ring {
                cx,
                cy,
                outer,
                inner,
            } => {
                let dx = x - cx;
                let dy = y - cy;
                let d2 = dx * dx + dy * dy;
                d2 <= outer * outer && d2 >= inner * inner
            }
        }
    }

    /// Sample a random shape family with class-defining parameters.
    pub fn random(rng: &mut Pcg32) -> Shape {
        let cx = rng.range_f32(0.35, 0.65);
        let cy = rng.range_f32(0.35, 0.65);
        match rng.below(4) {
            0 => Shape::Disc {
                cx,
                cy,
                r: rng.range_f32(0.12, 0.3),
            },
            1 => Shape::Rectangle {
                cx,
                cy,
                hw: rng.range_f32(0.1, 0.3),
                hh: rng.range_f32(0.05, 0.2),
                angle: rng.range_f32(0.0, std::f32::consts::PI),
            },
            2 => Shape::Polygon {
                cx,
                cy,
                r: rng.range_f32(0.15, 0.3),
                sides: 3 + rng.below(5) as u32,
                angle: rng.range_f32(0.0, std::f32::consts::TAU),
            },
            _ => {
                let outer = rng.range_f32(0.15, 0.3);
                Shape::Ring {
                    cx,
                    cy,
                    outer,
                    inner: outer * rng.range_f32(0.4, 0.7),
                }
            }
        }
    }

    /// A jittered copy: same family, perturbed position/scale/rotation.
    pub fn jitter(&self, rng: &mut Pcg32, strength: f32) -> Shape {
        let s = strength;
        let dp = |rng: &mut Pcg32| rng.range_f32(-0.06, 0.06) * s;
        let scale = |rng: &mut Pcg32| rng.range_f32(1.0 - 0.2 * s, 1.0 + 0.2 * s);
        match *self {
            Shape::Disc { cx, cy, r } => Shape::Disc {
                cx: (cx + dp(rng)).clamp(0.2, 0.8),
                cy: (cy + dp(rng)).clamp(0.2, 0.8),
                r: (r * scale(rng)).clamp(0.05, 0.4),
            },
            Shape::Rectangle {
                cx,
                cy,
                hw,
                hh,
                angle,
            } => Shape::Rectangle {
                cx: (cx + dp(rng)).clamp(0.2, 0.8),
                cy: (cy + dp(rng)).clamp(0.2, 0.8),
                hw: (hw * scale(rng)).clamp(0.04, 0.4),
                hh: (hh * scale(rng)).clamp(0.04, 0.4),
                angle: angle + rng.range_f32(-0.3, 0.3) * s,
            },
            Shape::Polygon {
                cx,
                cy,
                r,
                sides,
                angle,
            } => Shape::Polygon {
                cx: (cx + dp(rng)).clamp(0.2, 0.8),
                cy: (cy + dp(rng)).clamp(0.2, 0.8),
                r: (r * scale(rng)).clamp(0.05, 0.4),
                sides,
                angle: angle + rng.range_f32(-0.4, 0.4) * s,
            },
            Shape::Ring {
                cx,
                cy,
                outer,
                inner,
            } => {
                let o = (outer * scale(rng)).clamp(0.08, 0.4);
                Shape::Ring {
                    cx: (cx + dp(rng)).clamp(0.2, 0.8),
                    cy: (cy + dp(rng)).clamp(0.2, 0.8),
                    outer: o,
                    inner: (inner / outer * o).clamp(0.02, o * 0.9),
                }
            }
        }
    }

    /// Approximate area in unit coordinates (for tests).
    #[cfg(test)]
    fn approx_area(&self) -> f32 {
        match *self {
            Shape::Disc { r, .. } => std::f32::consts::PI * r * r,
            Shape::Rectangle { hw, hh, .. } => 4.0 * hw * hh,
            Shape::Polygon { r, sides, .. } => {
                let n = sides.max(3) as f32;
                0.5 * n * r * r * (std::f32::consts::TAU / n).sin()
            }
            Shape::Ring { outer, inner, .. } => {
                std::f32::consts::PI * (outer * outer - inner * inner)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Monte-Carlo area of a shape on a grid.
    fn grid_area(shape: &Shape, n: u32) -> f32 {
        let mut inside = 0u32;
        for y in 0..n {
            for x in 0..n {
                if shape.contains((x as f32 + 0.5) / n as f32, (y as f32 + 0.5) / n as f32) {
                    inside += 1;
                }
            }
        }
        inside as f32 / (n * n) as f32
    }

    #[test]
    fn disc_membership_and_area() {
        let d = Shape::Disc {
            cx: 0.5,
            cy: 0.5,
            r: 0.25,
        };
        assert!(d.contains(0.5, 0.5));
        assert!(d.contains(0.5, 0.74));
        assert!(!d.contains(0.5, 0.76));
        assert!((grid_area(&d, 200) - d.approx_area()).abs() < 0.01);
    }

    #[test]
    fn rotated_rectangle() {
        let r = Shape::Rectangle {
            cx: 0.5,
            cy: 0.5,
            hw: 0.3,
            hh: 0.1,
            angle: std::f32::consts::FRAC_PI_2,
        };
        // Rotated 90°: now tall, not wide.
        assert!(r.contains(0.5, 0.75));
        assert!(!r.contains(0.75, 0.5));
        assert!((grid_area(&r, 200) - r.approx_area()).abs() < 0.01);
    }

    #[test]
    fn polygon_area_matches_formula() {
        for sides in [3u32, 4, 5, 6, 8] {
            let p = Shape::Polygon {
                cx: 0.5,
                cy: 0.5,
                r: 0.3,
                sides,
                angle: 0.7,
            };
            let est = grid_area(&p, 300);
            assert!(
                (est - p.approx_area()).abs() < 0.01,
                "{sides}-gon: grid {est} vs formula {}",
                p.approx_area()
            );
        }
    }

    #[test]
    fn polygon_is_inside_its_circumcircle() {
        let p = Shape::Polygon {
            cx: 0.5,
            cy: 0.5,
            r: 0.3,
            sides: 5,
            angle: 0.0,
        };
        for y in 0..100 {
            for x in 0..100 {
                let (fx, fy) = (x as f32 / 100.0, y as f32 / 100.0);
                if p.contains(fx, fy) {
                    let d = ((fx - 0.5).powi(2) + (fy - 0.5).powi(2)).sqrt();
                    assert!(d <= 0.3 + 1e-4);
                }
            }
        }
    }

    #[test]
    fn ring_has_a_hole() {
        let r = Shape::Ring {
            cx: 0.5,
            cy: 0.5,
            outer: 0.3,
            inner: 0.15,
        };
        assert!(!r.contains(0.5, 0.5)); // hole
        assert!(r.contains(0.5, 0.5 + 0.2)); // band
        assert!(!r.contains(0.5, 0.9)); // outside
        assert!((grid_area(&r, 200) - r.approx_area()).abs() < 0.01);
    }

    #[test]
    fn jitter_preserves_family_and_stays_in_frame() {
        let mut rng = Pcg32::new(3);
        for _ in 0..50 {
            let s = Shape::random(&mut rng);
            let j = s.jitter(&mut rng, 1.0);
            assert_eq!(std::mem::discriminant(&s), std::mem::discriminant(&j));
            // Jittered shape keeps a sane area.
            assert!(j.approx_area() > 0.001 && j.approx_area() < 0.8);
        }
    }

    #[test]
    fn random_shapes_cover_families() {
        let mut rng = Pcg32::new(8);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[match Shape::random(&mut rng) {
                Shape::Disc { .. } => 0,
                Shape::Rectangle { .. } => 1,
                Shape::Polygon { .. } => 2,
                Shape::Ring { .. } => 3,
            }] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
