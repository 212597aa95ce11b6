package md

import "math"

// Vec3 is a 3-vector in Å (positions), Å/ps (velocities) or
// kcal/mol/Å (forces), depending on context.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Unit returns v/|v|; the zero vector is returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Box is a rectangular periodic box; a zero box means open boundaries.
type Box struct{ Lx, Ly, Lz float64 }

// Periodic reports whether the box has nonzero volume.
func (b Box) Periodic() bool { return b.Lx > 0 && b.Ly > 0 && b.Lz > 0 }

// Volume returns the box volume (0 for open boundaries).
func (b Box) Volume() float64 { return b.Lx * b.Ly * b.Lz }

// MinImage returns the minimum-image displacement of d under the box.
func (b Box) MinImage(d Vec3) Vec3 {
	if !b.Periodic() {
		return d
	}
	d.X -= b.Lx * math.Round(d.X/b.Lx)
	d.Y -= b.Ly * math.Round(d.Y/b.Ly)
	d.Z -= b.Lz * math.Round(d.Z/b.Lz)
	return d
}

// WrapAngle maps an angle in radians to (-π, π].
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a <= -math.Pi {
		a += 2 * math.Pi
	} else if a > math.Pi {
		a -= 2 * math.Pi
	}
	return a
}

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
