package md

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := NewState(len(s.Pos))
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	return c
}

// Step advances n velocity-Verlet steps as a segment of its own.
func (vv *VelocityVerlet) Step(sys *System, st *State, prm Params, n int) {
	vv.Begin(sys, st, prm)
	vv.Advance(n)
}
