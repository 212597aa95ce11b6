package engines

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/md"
)

// NAMD-flavoured input translation, mirroring amber.go for the second
// engine the paper demonstrates (§4.3). NAMD is configured through a
// Tcl-style config file.

// NAMDConfig is the subset of a NAMD configuration RepEx rewrites per
// replica per cycle.
type NAMDConfig struct {
	Steps       int
	TimestepFS  float64 // NAMD uses femtoseconds
	Temperature float64
	LangevinOn  bool
	Damping     float64 // 1/ps
	Restraints  []md.TorsionRestraint
}

// WriteNAMDConfig renders the config file text.
func WriteNAMDConfig(c NAMDConfig) string {
	var b strings.Builder
	b.WriteString("# REMD cycle configuration generated by repex\n")
	fmt.Fprintf(&b, "timestep            %g\n", c.TimestepFS)
	fmt.Fprintf(&b, "set temperature     %g\n", c.Temperature)
	b.WriteString("temperature         $temperature\n")
	if c.LangevinOn {
		b.WriteString("langevin            on\n")
		fmt.Fprintf(&b, "langevinDamping     %g\n", c.Damping)
		b.WriteString("langevinTemp        $temperature\n")
	}
	for i, r := range c.Restraints {
		// colvars-style harmonic restraint on a dihedral.
		fmt.Fprintf(&b, "colvar dihedral%d center %.4f forceConstant %.4f index %d\n",
			i, md.Deg(r.Center), r.K, r.Dihedral)
	}
	fmt.Fprintf(&b, "run                 %d\n", c.Steps)
	return b.String()
}

// ParseNAMDConfig parses text produced by WriteNAMDConfig.
func ParseNAMDConfig(text string) (NAMDConfig, error) {
	var c NAMDConfig
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "timestep":
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return c, fmt.Errorf("engines: bad timestep %q", fields[1])
			}
			c.TimestepFS = v
		case "set":
			if len(fields) >= 3 && fields[1] == "temperature" {
				v, err := strconv.ParseFloat(fields[2], 64)
				if err != nil {
					return c, fmt.Errorf("engines: bad temperature %q", fields[2])
				}
				c.Temperature = v
			}
		case "langevin":
			c.LangevinOn = len(fields) >= 2 && fields[1] == "on"
		case "langevinDamping":
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return c, fmt.Errorf("engines: bad damping %q", fields[1])
			}
			c.Damping = v
		case "colvar":
			r, err := parseColvar(fields)
			if err != nil {
				return c, err
			}
			c.Restraints = append(c.Restraints, r)
		case "run":
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return c, fmt.Errorf("engines: bad run steps %q", fields[1])
			}
			c.Steps = v
		}
	}
	if c.Steps <= 0 {
		return c, fmt.Errorf("engines: NAMD config missing positive run steps")
	}
	return c, nil
}

func parseColvar(fields []string) (md.TorsionRestraint, error) {
	var r md.TorsionRestraint
	for i := 2; i+1 < len(fields); i += 2 {
		switch fields[i] {
		case "center":
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return r, fmt.Errorf("engines: bad colvar center %q", fields[i+1])
			}
			r.Center = md.Rad(v)
		case "forceConstant":
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return r, fmt.Errorf("engines: bad colvar forceConstant %q", fields[i+1])
			}
			r.K = v
		case "index":
			v, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return r, fmt.Errorf("engines: bad colvar index %q", fields[i+1])
			}
			r.Dihedral = v
		}
	}
	return r, nil
}
