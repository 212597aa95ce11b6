package jsonx

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestWriterScalarsMatchEncodingJSON(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1.5, 273, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300,
		123456789.125, -2515.780585829659, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, _ := json.Marshal(v)
		w := &Writer{}
		if w.Float(v); string(w.Buf) != string(want) || w.Err() != nil {
			t.Errorf("Float(%v) wrote %s (err %v), encoding/json %s", v, w.Buf, w.Err(), want)
		}
	}
	for _, v := range []int{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456, -1, -9999, math.MinInt64, math.MaxInt64} {
		want, _ := json.Marshal(v)
		w := &Writer{}
		w.Int(v)
		w.Raw(" ")
		w.Int64(int64(v))
		if string(w.Buf) != string(want)+" "+string(want) {
			t.Errorf("Int(%d) wrote %s, encoding/json %s", v, w.Buf, want)
		}
	}
	w := &Writer{}
	w.Uint64(math.MaxUint64)
	w.Bool(true)
	w.Bool(false)
	if string(w.Buf) != "18446744073709551615truefalse" {
		t.Errorf("wrote %s", w.Buf)
	}
}

func TestWriterRejectsNonFiniteFloats(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := &Writer{}
		w.Float(1)
		w.Float(v)
		if w.Err() == nil {
			t.Errorf("Float(%v) reported no error", v)
		}
	}
}

// TestWriterStringsReadBack: whatever String writes, encoding/json and
// the Reader both read back as the input with invalid UTF-8 replaced —
// the value encoding/json's own encoder would have preserved.
func TestWriterStringsReadBack(t *testing.T) {
	for _, s := range []string{"", "window", `a"b\c`, "tab\there\nnl\x00\x1f", "<&>", "µ-run ∆", "bad\xffutf8\xc3", " \U0001F600"} {
		w := &Writer{}
		w.String(s)
		viaJSON, _ := json.Marshal(s)
		var want, got string
		if err := json.Unmarshal(viaJSON, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(w.Buf, &got); err != nil || got != want {
			t.Errorf("String(%q) wrote %s; encoding/json reads %q (err %v), want %q", s, w.Buf, got, err, want)
		}
		r := NewReader(w.Buf)
		if got := r.String(); r.End() != nil || got != want {
			t.Errorf("String(%q) wrote %s; Reader reads %q (err %v), want %q", s, w.Buf, got, r.End(), want)
		}
	}
}

func TestWriterObjectsAndArrays(t *testing.T) {
	w := &Writer{}
	w.Raw("{")
	w.Key("a")
	w.Ints([]int{1, 22, 333, 4444, 55555, -6})
	w.Key("b")
	w.Ints(nil)
	w.Key("c")
	w.Ints([]int{})
	w.Key("d")
	WriteArray(w, [][]int{{1}, {2, 3}}, true, (*Writer).Ints)
	w.Key("e")
	WriteArray(w, []float64(nil), false, (*Writer).Float)
	w.Key("f")
	WriteArray(w, []bool{}, true, (*Writer).Bool)
	w.Raw("}")
	const want = `{"a":[1,22,333,4444,55555,-6],"b":null,"c":[],"d":[` + "\n[1],\n[2,3]\n" + `],"e":null,"f":[]}`
	if string(w.Buf) != want {
		t.Fatalf("wrote\n%s\nwant\n%s", w.Buf, want)
	}
}

func TestReaderDocument(t *testing.T) {
	const doc = ` {"i": -12, "u": 18446744073709551615, "f": -1.5e3, "t": true, "s": "aé\n",
	 "ints": [1, 23 ] , "skip": {"x": [1, {"y": null}], "z": "😀"}, "raw": [ 1, {"k": false} ],
	 "null_obj": null, "null_arr": null, "empty": [], "rows": [[1,2],[],[3]], "id": 7} `
	r := NewReader([]byte(doc))
	var (
		i, id       int
		u           uint64
		f           float64
		tr          bool
		s           string
		ints, empty []int
		nullArr     = []int{9}
		raw         []byte
		rows        [][]int
		unknown     int
	)
	for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
		switch string(k) {
		case "i":
			i = r.Int()
		case "u":
			u = r.Uint64()
		case "f":
			f = r.Float()
		case "t":
			tr = r.Bool()
		case "s":
			s = r.String()
		case "ints":
			ints = r.Ints()
		case "raw":
			raw = r.Raw()
		case "null_obj":
			for _, ok := r.FirstKey(); ok; _, ok = r.NextKey() {
				t.Fatal("null object has a key")
			}
		case "null_arr":
			nullArr = r.Ints()
		case "empty":
			empty = readArray(r, func(r *Reader, p *int) { *p = r.Int() })
		case "rows":
			rows = readArray(r, func(r *Reader, p *[]int) { *p = r.Ints() })
		case "id":
			id = r.Int()
		default:
			unknown++
			r.Skip()
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if i != -12 || u != math.MaxUint64 || f != -1500 || !tr || s != "aé\n" || id != 7 || unknown != 1 {
		t.Fatalf("scalars: %d %d %v %v %q id=%d unknown=%d", i, u, f, tr, s, id, unknown)
	}
	if !reflect.DeepEqual(ints, []int{1, 23}) || nullArr != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("arrays: %v %v %v", ints, nullArr, empty)
	}
	if string(raw) != `[ 1, {"k": false} ]` {
		t.Fatalf("raw %q", raw)
	}
	if !reflect.DeepEqual(rows, [][]int{{1, 2}, {}, {3}}) || rows[1] == nil {
		t.Fatalf("rows %#v", rows)
	}
	// Rows share one array but cannot grow into each other.
	if cap(rows[0]) != 2 {
		t.Fatalf("row capacity %d, want 2", cap(rows[0]))
	}
	_ = append(rows[0], 99)
	if rows[2][0] != 3 {
		t.Fatalf("appending to a row overwrote the next: %v", rows)
	}
	if r := NewReader([]byte(doc)); r.FirstElem() || r.End() == nil {
		t.Fatal("an object read as an array")
	}
}

// TestIntsMatchesReadArray: the hand-written int loop, which counts its
// row first, and the general element loop read the same arrays and fail
// on the same ones.
func TestIntsMatchesReadArray(t *testing.T) {
	for _, in := range []string{`[]`, `[0]`, `[1,2,3]`, `[ 1 , 2 ]`, `[-1,0,-0]`, `[123456789,1234567890,99999999999]`,
		`[01]`, `[1,]`, `[,1]`, `[1 2]`, `[1.5]`, `[1e3]`, `[9223372036854775807]`, `[9223372036854775808]`,
		`[-9223372036854775808]`, `[-9223372036854775809]`, `[1`, `[`, `[1,"2"]`, `null`, `[null]`, `[+1]`, `[--1]`, `[1]]`} {
		fast, slow := NewReader([]byte(in)), NewReader([]byte(in))
		got := fast.Ints()
		want := readArray(slow, func(r *Reader, p *int) { *p = r.Int() })
		if (fast.End() == nil) != (slow.End() == nil) {
			t.Errorf("%s: Ints err %v, ReadArray err %v", in, fast.End(), slow.End())
		} else if fast.End() == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Ints %#v, ReadArray %#v", in, got, want)
		}
		var ref []int
		if (json.Unmarshal([]byte(in), &ref) == nil) != (slow.End() == nil) && in != `[null]` {
			t.Errorf("%s: ReadArray err %v, encoding/json disagrees", in, slow.End())
		}
	}
}

func TestReaderRejects(t *testing.T) {
	for in, want := range map[string]string{
		`{"i": 1.0}`:                  "not an integer",
		`{"i": 1e2}`:                  "not an integer",
		`{"i": 9223372036854775808}`:  "not an integer",
		`{"i": 99999999999999999999}`: "not an integer",
		`{"i": "1"}`:                  "expected a number",
		`{"i": null}`:                 "expected a number",
		`{"i": 1, "i": 2}`:            "duplicate key",
		`{"i": 1, "\u0069": 2}`:       "duplicate key",
		`{"i": 1} x`:                  "trailing data",
		`{"i": 1}{}`:                  "trailing data",
		`{"i": 1`:                     "expected , or }",
		`{"i" 1}`:                     "colon",
		`{i: 1}`:                      "expected a string",
		`{"i": 1,}`:                   "expected a string",
		`{"u": -1}`:                   "not an unsigned",
		`{"f": 1e999}`:                "out of range",
		`{"f": .5}`:                   "expected a number",
		`{"f": 1.}`:                   "expected a number",
		`{"f": 1e}`:                   "expected a number",
		`{"f": -}`:                    "expected a number",
		`{"t": tru}`:                  "true or false",
		`{"s": "a` + "\n" + `"}`:      "invalid character",
		`{"s": "a\x"}`:                "invalid character",
		`{"s": "\u12g4"}`:             "invalid character",
		`{"s": "abc`:                  "unterminated",
		`{"s": "abc\`:                 "unterminated",
		`{"z": nul}`:                  "invalid literal",
		`{"z": [1 2]}`:                "expected , or ]",
		`{"z": ` + strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1) + `}`:       "nesting deeper",
		`{"z": ` + strings.Repeat(`{"a":`, MaxDepth) + "1" + strings.Repeat("}", MaxDepth) + `}`: "nesting deeper",
		`[1]`: "expected an object",
		``:    "expected an object",
	} {
		r := NewReader([]byte(in))
		for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
			switch string(k) {
			case "i":
				r.Int()
			case "u":
				r.Uint64()
			case "f":
				r.Float()
			case "t":
				r.Bool()
			case "s":
				_ = r.String()
			default:
				r.Skip()
			}
		}
		if err := r.End(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", in, err, want)
		}
	}
}

// validCorpus holds values on both sides of every rule of the grammar.
var validCorpus = []string{
	`null`, `true`, `false`, `0`, `-0`, `1.5e-3`, `"a"`, `[]`, `{}`, ` [ 1 , {"a" : [ ] } ] `, `[1,2,3,40,500]`,
	`"é😀\ud83d"`, `"\/\b\f\n\r\t\"\\"`, "\"\xff\"", `[0,10,07]`, `[1,2,]`, `01`, `1.`, `.1`, `+1`, `1e+`, `-`,
	`tru`, `nul`, `"a`, `"\x"`, `"\u12"`, "\"\x01\"", `[1 2]`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{1:2}`, `[`, `{`, `]`, ``, ` `,
	`1 2`, `{"a":1}x`, `[1,2,3`, `[1,2,3,`, `[00,1]`, `[1,-]`, "[1,\x00]",
}

// TestValidIsNoLaxerThanEncodingJSON: Valid accepts nothing
// encoding/json rejects, and rejects of what encoding/json accepts only
// repeated keys and nesting past MaxDepth.
func TestValidIsNoLaxerThanEncodingJSON(t *testing.T) {
	for _, in := range validCorpus {
		if got, want := Valid([]byte(in)), json.Valid([]byte(in)); got != want {
			t.Errorf("Valid(%q) = %v, encoding/json %v", in, got, want)
		}
	}
	for _, in := range []string{`{"a":1,"a":2}`, `[{"a":1,"b":{"c":1,"c":2}}]`, strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1)} {
		if Valid([]byte(in)) || !json.Valid([]byte(in)) {
			t.Errorf("Valid(%q) = %v, want false where encoding/json says true", in, Valid([]byte(in)))
		}
	}
	if in := strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth); !Valid([]byte(in)) {
		t.Errorf("nesting of exactly MaxDepth rejected")
	}
	// A key may repeat in sibling objects.
	if in := `[{"a":1},{"a":2},{"b":{"a":1},"a":2}]`; !Valid([]byte(in)) {
		t.Errorf("Valid(%q) = false", in)
	}
}

// FuzzValid: whatever Valid accepts, encoding/json accepts; a string
// the Reader reads, encoding/json reads to the same value.
func FuzzValid(f *testing.F) {
	for _, in := range validCorpus {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if Valid(data) && !json.Valid(data) {
			t.Fatalf("Valid accepts %q, encoding/json does not", data)
		}
		r := NewReader(data)
		if got := r.String(); r.End() == nil {
			var want string
			if err := json.Unmarshal(data, &want); err != nil || got != want {
				t.Fatalf("String reads %q as %q, encoding/json as %q (err %v)", data, got, want, err)
			}
		}
	})
}

// TestIndentMatchesEncodingJSON: Indent lays compact text out as
// encoding/json's Indent does with no prefix, strings that hold
// brackets, commas, colons and escaped quotes included.
func TestIndentMatchesEncodingJSON(t *testing.T) {
	for _, v := range []any{
		0, "s", nil, []int{}, map[string]int{}, []int(nil), []any{[]int{}, map[string]any{}, []int{1}},
		map[string]any{"a": []any{1, "x,y", map[string]any{"k:}": "]\"{"}}, "b": map[string]any{}, "c": []any{}},
		[][]int{{1, 2}, nil, {}, {3}}, `back\slash "quoted" <tag> & `, map[string]any{"": ""},
	} {
		src, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, indent := range []string{" ", "\t"} {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", indent); err != nil {
				t.Fatal(err)
			}
			if got := Indent([]byte("prefix"), src, indent); string(got) != "prefix"+want.String() {
				t.Errorf("Indent(%s, %q):\n%s\nencoding/json:\n%s", src, indent, got[len("prefix"):], want.Bytes())
			}
		}
	}
}
