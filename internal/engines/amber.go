package engines

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/md"
)

// This file implements the Amber-flavoured input translation of the
// Remote Application Modules (RAM): generation and parsing of
// per-replica mdin files. The format is faithful in structure (Fortran
// namelist / Amber conventions) so that the adapter exercises the same
// translation work RepEx's AMM/RAM perform for real Amber.

// MDIN describes the subset of Amber's &cntrl namelist RepEx manipulates
// per replica per cycle.
type MDIN struct {
	// NSTLim is the number of MD steps (nstlim).
	NSTLim int
	// Dt is the time step in ps (dt).
	Dt float64
	// Temp0 is the thermostat target (temp0).
	Temp0 float64
	// GammaLn is the Langevin collision frequency in 1/ps (gamma_ln).
	GammaLn float64
	// SaltCon is the salt concentration in M (saltcon, as used with
	// generalized Born).
	SaltCon float64
	// Restraints become an Amber-style DISANG-like section.
	Restraints []md.TorsionRestraint
}

// WriteMDIN renders the mdin file text for one replica cycle.
func WriteMDIN(in MDIN) string {
	var b strings.Builder
	b.WriteString("REMD cycle input generated by repex\n")
	b.WriteString(" &cntrl\n")
	fmt.Fprintf(&b, "  imin = 0, ntx = 5, irest = 1,\n")
	fmt.Fprintf(&b, "  nstlim = %d, dt = %g,\n", in.NSTLim, in.Dt)
	fmt.Fprintf(&b, "  ntt = 3, gamma_ln = %g, temp0 = %g,\n", in.GammaLn, in.Temp0)
	fmt.Fprintf(&b, "  saltcon = %g,\n", in.SaltCon)
	if len(in.Restraints) > 0 {
		b.WriteString("  nmropt = 1,\n")
	}
	b.WriteString(" &end\n")
	for _, r := range in.Restraints {
		// Amber expresses torsion restraints in degrees with force
		// constants in kcal/mol/rad² (rk2/rk3).
		fmt.Fprintf(&b, " &rst iat = -1, r2 = %.4f, rk2 = %.4f, dihedral = %d &end\n",
			md.Deg(r.Center), r.K, r.Dihedral)
	}
	return b.String()
}

// nextKV splits the first comma-separated "key = value" item off s.
// ok is false for an item without '='.
func nextKV(s string) (key, val, rest string, ok bool) {
	item, rest, _ := strings.Cut(s, ",")
	key, val, ok = strings.Cut(item, "=")
	return strings.TrimSpace(key), strings.TrimSpace(val), rest, ok
}

// ParseMDIN parses text produced by WriteMDIN back into an MDIN,
// completing the AMM round trip (user requirements -> engine input ->
// engine view of the run). It runs once per MD task, so it scans the
// text in place instead of splitting it into fields.
func ParseMDIN(text string) (MDIN, error) {
	var in MDIN
	var nstlim float64
	// The &cntrl keys read, and where each value goes; values are
	// converted in this order once the whole text is scanned, because the
	// last assignment of a key wins, as in a namelist.
	keys := [...]string{"nstlim", "dt", "temp0", "gamma_ln", "saltcon"}
	dst := [...]*float64{&nstlim, &in.Dt, &in.Temp0, &in.GammaLn, &in.SaltCon}
	var vals [len(keys)]string
	var set [len(keys)]bool
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "&rst") {
			r, err := parseRst(line)
			if err != nil {
				return in, err
			}
			in.Restraints = append(in.Restraints, r)
			continue
		}
		for line != "" {
			key, val, rest, ok := nextKV(line)
			line = rest
			if !ok {
				continue
			}
			for k, name := range keys {
				if key == name {
					vals[k], set[k] = val, true
				}
			}
		}
	}
	for k, name := range keys {
		if !set[k] {
			continue
		}
		v, err := strconv.ParseFloat(vals[k], 64)
		if err != nil {
			return in, fmt.Errorf("engines: bad %s value %q", name, vals[k])
		}
		*dst[k] = v
	}
	in.NSTLim = int(nstlim)
	if in.NSTLim <= 0 {
		return in, fmt.Errorf("engines: mdin missing positive nstlim")
	}
	return in, nil
}

func parseRst(line string) (md.TorsionRestraint, error) {
	var r md.TorsionRestraint
	line = strings.TrimPrefix(line, "&rst")
	line = strings.TrimSuffix(strings.TrimSpace(line), "&end")
	for line != "" {
		key, val, rest, ok := nextKV(line)
		line = rest
		if !ok {
			continue
		}
		switch key {
		case "r2":
			deg, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return r, fmt.Errorf("engines: bad restraint r2 %q", val)
			}
			r.Center = md.Rad(deg)
		case "rk2":
			k, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return r, fmt.Errorf("engines: bad restraint rk2 %q", val)
			}
			r.K = k
		case "dihedral":
			d, err := strconv.Atoi(val)
			if err != nil {
				return r, fmt.Errorf("engines: bad restraint dihedral %q", val)
			}
			r.Dihedral = d
		}
	}
	return r, nil
}
