package engines

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/md"
)

// referenceParseMDIN is the Split-and-map parser ParseMDIN replaced, kept
// as the definition of the accepted grammar and of every error message.
func referenceParseMDIN(text string) (MDIN, error) {
	var in MDIN
	fields := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "&rst") {
			r, err := referenceParseRst(line)
			if err != nil {
				return in, err
			}
			in.Restraints = append(in.Restraints, r)
			continue
		}
		for _, kv := range strings.Split(line, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				continue
			}
			fields[strings.TrimSpace(parts[0])] = strings.TrimSpace(parts[1])
		}
	}
	var err error
	get := func(key string, dst *float64) {
		if v, ok := fields[key]; ok && err == nil {
			var e error
			*dst, e = strconv.ParseFloat(v, 64)
			if e != nil {
				err = fmt.Errorf("engines: bad %s value %q", key, v)
			}
		}
	}
	var nstlim float64
	get("nstlim", &nstlim)
	in.NSTLim = int(nstlim)
	get("dt", &in.Dt)
	get("temp0", &in.Temp0)
	get("gamma_ln", &in.GammaLn)
	get("saltcon", &in.SaltCon)
	if err != nil {
		return in, err
	}
	if in.NSTLim <= 0 {
		return in, fmt.Errorf("engines: mdin missing positive nstlim")
	}
	return in, nil
}

func referenceParseRst(line string) (md.TorsionRestraint, error) {
	var r md.TorsionRestraint
	line = strings.TrimPrefix(line, "&rst")
	line = strings.TrimSuffix(strings.TrimSpace(line), "&end")
	for _, kv := range strings.Split(line, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			continue
		}
		key := strings.TrimSpace(parts[0])
		val := strings.TrimSpace(parts[1])
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

// TestParseMDINMatchesReference: on well-formed input, hand-written edge
// cases and 2000 seeded random corruptions of a generated file, the
// scanning parser accepts what the reference accepts, returns the same
// MDIN and fails with the same message.
func TestParseMDINMatchesReference(t *testing.T) {
	full := WriteMDIN(MDIN{NSTLim: 6000, Dt: 0.002, Temp0: 300, GammaLn: 5, SaltCon: 0.15,
		Restraints: []md.TorsionRestraint{
			{Dihedral: 1, Center: md.Rad(-60), K: 65.65},
			{Dihedral: 2, Center: md.Rad(120), K: 20},
		}})
	cases := []string{
		"", "\n", ",", "=", "nstlim", "nstlim=", "nstlim=5", " nstlim = 5 ,", "nstlim=5,,dt=1",
		"nstlim=5\nnstlim=7", "nstlim=7, nstlim=banana", "nstlim=banana, nstlim=7",
		"dt=x, nstlim=y", "nstlim=5, saltcon=salty, temp0=hot", "nstlim = 5 = 6",
		"nstlim=-3", "nstlim=2.9", "nstlim=5\r\n dt=0.1\r\n", "NSTLIM=5", "nstlim =5\n&rst",
		"nstlim=5\n&rst r2=abc &end", "nstlim=5\n&rst rk2=abc, r2=1 &end", "nstlim=5\n&rst dihedral=1.5 &end",
		"nstlim=5\n  &rst iat=-1, r2 = 10, rk2 = 2, dihedral = 3", "nstlim=5\n&rst r2=1, r2=2 &end &end",
		"nstlim=5\n&rstr2=1 &end", "&rst dihedral=4 &end", "nstlim=5, &rst r2=1 &end",
		full,
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = ",=\n &xrst0123456789.-e"
	for i := 0; i < 2000; i++ {
		b := []byte(full)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			at := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[at] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				b = append(b[:at], b[at+1:]...)
			default:
				b = append(b[:at], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[at:]...)...)
			}
		}
		cases = append(cases, string(b))
	}
	for _, text := range cases {
		want, wantErr := referenceParseMDIN(text)
		got, err := ParseMDIN(text)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseMDIN(%q): error %v, reference %v", text, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseMDIN(%q) = %+v, reference %+v", text, got, want)
		}
	}
}

// TestParseMDINAllocations: a task's input parse allocates only the
// restraint slice it returns.
func TestParseMDINAllocations(t *testing.T) {
	in := MDIN{NSTLim: 6000, Dt: 0.002, Temp0: 300, GammaLn: 5, SaltCon: 0.15}
	plain := WriteMDIN(in)
	in.Restraints = []md.TorsionRestraint{{Dihedral: 1, Center: md.Rad(-60), K: 65.65}}
	restrained := WriteMDIN(in)
	for _, c := range []struct {
		text string
		want float64
	}{{plain, 0}, {restrained, 1}} {
		got := testing.AllocsPerRun(50, func() {
			if _, err := ParseMDIN(c.text); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("ParseMDIN allocates %v times, want at most %v, on:\n%s", got, c.want, c.text)
		}
	}
}
