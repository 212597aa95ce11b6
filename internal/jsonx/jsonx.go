// Package jsonx is the JSON codec under the checkpoint path: an
// append-based Writer, a strict pull Reader, and Layout, which declares
// a record's fields once — key, accessor, kind, omit-when-empty — and
// drives both from that one list. Every checkpoint record (core.Snapshot
// and its parts, the analysis collector's state, the stateful triggers'
// controller state) is a Layout. Only Layout.CheckTags, which tests
// call, uses reflection.
//
// It reads and writes what encoding/json reads and writes for the same
// types, and is stricter than encoding/json on input: object keys match
// exactly (no case folding), a key repeated within one object is an
// error, null stands only for an object, an array or a raw value,
// integers are written without fraction or exponent and fit their type,
// and nesting is capped at MaxDepth. Strings that are not plain ASCII —
// a few names in a checkpoint — go through encoding/json's own quoting,
// so escapes and invalid UTF-8 follow the rules the files already
// written follow.
package jsonx

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends JSON text to Buf: Raw for braces, Key before each
// field, the typed methods for values. The first value that has no JSON
// form (NaN, an infinity) is kept for Err.
type Writer struct {
	Buf []byte
	err error
}

// Err returns the first value that could not be written, if any.
func (w *Writer) Err() error { return w.err }

// Key writes "k": with a comma before it unless it opens an object; k
// is a field name that needs no escaping (String costs half again as
// much on a collector state, which is mostly keys).
func (w *Writer) Key(k string) *Writer {
	if n := len(w.Buf); n > 0 && w.Buf[n-1] != '{' {
		w.Buf = append(w.Buf, ',')
	}
	w.Buf = append(append(append(w.Buf, '"'), k...), '"', ':')
	return w
}

func (w *Writer) Raw(s string)    { w.Buf = append(w.Buf, s...) }
func (w *Writer) Int(v int)       { w.Buf = appendInt(w.Buf, v) }
func (w *Writer) Int64(v int64)   { w.Buf = strconv.AppendInt(w.Buf, v, 10) }
func (w *Writer) Uint64(v uint64) { w.Buf = strconv.AppendUint(w.Buf, v, 10) }
func (w *Writer) Bool(v bool)     { w.Buf = strconv.AppendBool(w.Buf, v) }

// Float writes the shortest text that parses back to v, in
// encoding/json's layout: exponent form only below 1e-6 and from 1e21.
func (w *Writer) Float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("jsonx: %v has no JSON form", v)
		}
		v = 0
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.Buf = strconv.AppendFloat(w.Buf, v, format, -1, 64)
	// e-07 becomes e-7.
	if n := len(w.Buf); format == 'e' && n >= 4 && w.Buf[n-4] == 'e' && w.Buf[n-2] == '0' {
		w.Buf[n-2] = w.Buf[n-1]
		w.Buf = w.Buf[:n-1]
	}
}

// Blob writes a value that is already JSON text, as it is, after
// checking that it is one.
func (w *Writer) Blob(v []byte) {
	if !Valid(v) && w.err == nil {
		w.err = fmt.Errorf("jsonx: embedded value of %d bytes is not valid JSON", len(v))
	}
	w.Buf = append(w.Buf, v...)
}

func (w *Writer) String(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			w.Buf = append(w.Buf, quoted...)
			return
		}
	}
	w.Buf = append(append(append(w.Buf, '"'), s...), '"')
}

// Ints writes v as an array on one line, null for nil. Slot rows and
// walk traces are nearly all of a checkpoint, so they get a loop of
// their own, and up to four digits go by hand: strconv's general path
// costs four times as much on them.
func (w *Writer) Ints(v []int) {
	if v == nil {
		w.Raw("null")
		return
	}
	b := append(w.Buf, '[')
	for i, e := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, e)
	}
	w.Buf = append(b, ']')
}

func appendInt(b []byte, v int) []byte {
	switch {
	case v < 0 || v >= 10000:
		return strconv.AppendInt(b, int64(v), 10)
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, byte('0'+v/10), byte('0'+v%10))
	case v < 1000:
		return append(b, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
	}
	return append(b, byte('0'+v/1000), byte('0'+v/100%10), byte('0'+v/10%10), byte('0'+v%10))
}

func (w *Writer) Floats(v []float64) { WriteArray(w, v, false, (*Writer).Float) }

// WriteArray writes v as an array, on one line or (rows) one line an
// element; a nil slice is written as null.
func WriteArray[T any](w *Writer, v []T, rows bool, elem func(*Writer, T)) {
	writeArray(w, v, rows, func(w *Writer, p *T) { elem(w, *p) })
}

// writeArray is WriteArray with each element passed by address.
func writeArray[T any](w *Writer, v []T, rows bool, elem func(*Writer, *T)) {
	if v == nil {
		w.Raw("null")
		return
	}
	rows = rows && len(v) > 0
	w.Buf = append(w.Buf, '[')
	for i := range v {
		if i > 0 {
			w.Buf = append(w.Buf, ',')
		}
		if rows {
			w.Buf = append(w.Buf, '\n')
		}
		elem(w, &v[i])
	}
	if rows {
		w.Buf = append(w.Buf, '\n')
	}
	w.Buf = append(w.Buf, ']')
}

// MaxDepth bounds the nesting of a value the Reader skips or captures.
const MaxDepth = 64

// Reader is a single-pass pull parser over one JSON document. The first
// error sticks: every later read returns a zero value and every loop
// condition false, so callers check End once.
type Reader struct {
	data []byte
	pos  int
	err  error
	// keys holds the keys seen so far in every open object, innermost
	// last; marks[:depth] the index each open object's keys start at.
	keys  [][]byte
	marks [MaxDepth]int
	depth int
	// The arrays of scalars a Layout reads share one backing array per
	// element type (the Ints, Floats, Bools and Uint64s kinds), and
	// unknown keeps the first key no layout declared.
	ints    []int
	floats  []float64
	bools   []bool
	uints   []uint64
	unknown []byte
}

func NewReader(data []byte) *Reader { return &Reader{data: data} }

// End checks that only white space follows and returns the first error.
func (r *Reader) End() error {
	if r.peek(); r.err == nil && r.pos < len(r.data) {
		r.fail("trailing data after the value")
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
	r.pos = len(r.data)
}

// peek skips white space and returns the next byte, 0 at the end.
func (r *Reader) peek() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (r *Reader) take(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.pos++
	return true
}

func (r *Reader) literal(s string) bool {
	r.peek()
	if end := r.pos + len(s); end > len(r.data) || string(r.data[r.pos:end]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// Null consumes a null if one is next.
func (r *Reader) Null() bool { return r.literal("null") }

func (r *Reader) Bool() bool {
	if r.literal("true") {
		return true
	}
	if !r.literal("false") {
		r.fail("expected true or false")
	}
	return false
}

// push opens one level of nesting whose keys start here.
func (r *Reader) push() bool {
	if r.depth == MaxDepth {
		r.fail("nesting deeper than %d", MaxDepth)
		return false
	}
	if r.keys == nil {
		r.keys = make([][]byte, 0, 32) // a checkpoint's open objects hold fewer
	}
	r.marks[r.depth] = len(r.keys)
	r.depth++
	return true
}

func (r *Reader) pop() {
	r.depth--
	r.keys = r.keys[:r.marks[r.depth]]
}

// FirstKey opens an object and returns its first key; false for an
// empty object or a null. NextKey returns the following keys, false
// once the object is closed. A key aliases the input: compare it, do
// not keep or change it.
func (r *Reader) FirstKey() ([]byte, bool) {
	if r.Null() {
		return nil, false
	}
	if !r.take('{') {
		r.fail("expected an object")
		return nil, false
	}
	if !r.push() {
		return nil, false
	}
	if r.take('}') {
		r.pop()
		return nil, false
	}
	return r.key()
}

func (r *Reader) NextKey() ([]byte, bool) {
	if r.take(',') {
		return r.key()
	}
	if !r.take('}') {
		r.fail("expected , or } in an object")
		return nil, false
	}
	r.pop()
	return nil, false
}

func (r *Reader) key() ([]byte, bool) {
	k := r.str()
	if !r.take(':') {
		r.fail("expected a key and a colon")
		return nil, false
	}
	for _, seen := range r.keys[r.marks[r.depth-1]:] {
		if string(seen) == string(k) {
			r.fail("duplicate key %q", k)
			return nil, false
		}
	}
	r.keys = append(r.keys, k)
	return k, true
}

// FirstElem opens an array and reports whether it has a first element;
// NextElem whether another follows, closing the array when none does.
func (r *Reader) FirstElem() bool {
	if !r.take('[') {
		r.fail("expected an array")
		return false
	}
	return !r.take(']')
}

func (r *Reader) NextElem() bool {
	if r.take(',') {
		return true
	}
	if !r.take(']') {
		r.fail("expected , or ] in an array")
	}
	return false
}

// ReadArray reads an array onto the end of *backing, one elem call an
// element, and returns what it read with no spare capacity, so rows
// that share a backing array cannot grow into each other. Null reads as
// nil, [] as empty.
func ReadArray[T any](r *Reader, backing *[]T, elem func(*Reader) T) []T {
	return readArray(r, backing, func(r *Reader, p *T) { *p = elem(r) })
}

// readArray is ReadArray with each element read in place.
func readArray[T any](r *Reader, backing *[]T, elem func(*Reader, *T)) []T {
	if r.Null() {
		return nil
	}
	start := len(*backing)
	var zero T
	for ok := r.FirstElem(); ok; ok = r.NextElem() {
		*backing = append(*backing, zero)
		elem(r, &(*backing)[len(*backing)-1])
	}
	return tail(*backing, start)
}

// tail cuts the elements from start on out of b, with no capacity to
// spare; empty, not nil, when there are none.
func tail[T any](b []T, start int) []T {
	if b == nil {
		return []T{}
	}
	return b[start:len(b):len(b)]
}

// Ints is ReadArray for ints, the bulk of a checkpoint, with the plain
// case by hand: up to nine digits closed by a comma or the bracket.
// Signs, spaces, longer and malformed numbers go through Int.
func (r *Reader) Ints(backing *[]int) []int {
	if r.Null() {
		return nil
	}
	data, b, start := r.data, *backing, len(*backing)
	for more := r.FirstElem(); more; {
		pos, v := r.pos, 0
		for pos < len(data) && pos-r.pos < 9 && data[pos]-'0' <= 9 {
			v = v*10 + int(data[pos]-'0')
			pos++
		}
		if n := pos - r.pos; n == 0 || n > 1 && data[r.pos] == '0' ||
			pos == len(data) || data[pos] != ',' && data[pos] != ']' {
			v = r.Int()
			more = r.NextElem()
		} else {
			more = data[pos] == ','
			r.pos = pos + 1
		}
		b = append(b, v)
	}
	*backing = b
	return tail(b, start)
}

func (r *Reader) Floats(backing *[]float64) []float64 { return ReadArray(r, backing, (*Reader).Float) }

// String reads a string; invalid UTF-8 in it becomes U+FFFD.
func (r *Reader) String() string { return string(r.str()) }

// str reads a string and returns it unquoted: a slice of the input when
// it is plain ASCII without escapes.
func (r *Reader) str() []byte {
	if !r.take('"') {
		r.fail("expected a string")
		return nil
	}
	start, plain := r.pos, true
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			if plain {
				return r.data[start : r.pos-1]
			}
			var s string
			if err := json.Unmarshal(r.data[start-1:r.pos], &s); err != nil {
				r.fail("%v", err)
			}
			return []byte(s)
		case c == '\\':
			plain = false
			r.pos++ // the escaped byte cannot close the string
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	r.fail("unterminated string")
	return nil
}

// digitsEnd returns the end of the run of digits that starts at pos.
func digitsEnd(data []byte, pos int) int {
	for pos < len(data) && data[pos]-'0' <= 9 {
		pos++
	}
	return pos
}

// number scans one number and returns its text.
func (r *Reader) number() []byte {
	r.peek()
	data, pos := r.data, r.pos
	if pos < len(data) && data[pos] == '-' {
		pos++
	}
	end := digitsEnd(data, pos)
	ok := end > pos && (data[pos] != '0' || end == pos+1)
	if pos = end; ok && pos < len(data) && data[pos] == '.' {
		end = digitsEnd(data, pos+1)
		ok, pos = end > pos+1, end
	}
	if ok && pos < len(data) && data[pos]|0x20 == 'e' {
		if pos++; pos < len(data) && (data[pos] == '+' || data[pos] == '-') {
			pos++
		}
		end = digitsEnd(data, pos)
		ok, pos = end > pos, end
	}
	if !ok {
		r.fail("expected a number")
		return nil
	}
	text := data[r.pos:pos]
	r.pos = pos
	return text
}

// The scalar readers leave range and, for integers, the absence of a
// fraction or exponent to strconv; the text does not escape, so the
// conversion to string stays on the stack.

func (r *Reader) Float() float64 {
	text := r.number()
	v, err := strconv.ParseFloat(string(text), 64)
	if err != nil && r.err == nil {
		r.fail("number %s out of range", text)
	}
	return v
}

func (r *Reader) Int() int     { return int(r.integer(0)) }
func (r *Reader) Int64() int64 { return r.integer(64) }

func (r *Reader) integer(bits int) int64 {
	text := r.number()
	v, err := strconv.ParseInt(string(text), 10, bits)
	if err != nil && r.err == nil {
		r.fail("%s is not an integer in range", text)
	}
	return v
}

func (r *Reader) Uint64() uint64 {
	text := r.number()
	v, err := strconv.ParseUint(string(text), 10, 64)
	if err != nil && r.err == nil {
		r.fail("%s is not an unsigned integer in range", text)
	}
	return v
}

// Skip reads past one value of any type, checking its syntax.
func (r *Reader) Skip() {
	switch r.peek() {
	case '{':
		for _, ok := r.FirstKey(); ok; _, ok = r.NextKey() {
			r.Skip()
		}
	case '[':
		if !r.push() {
			return
		}
		for ok := r.FirstElem(); ok; ok = r.NextElem() {
			// Hop over plain "digits," runs, most of what a checkpoint
			// nests; the element after the last comma is read below.
			for {
				end := digitsEnd(r.data, r.pos)
				if end == r.pos || end == len(r.data) || r.data[end] != ',' || r.data[r.pos] == '0' && end > r.pos+1 {
					break
				}
				r.pos = end + 1
			}
			r.Skip()
		}
		if r.err == nil {
			r.pop()
		}
	case '"':
		r.str()
	case 't', 'f':
		r.Bool()
	case 'n':
		if !r.Null() {
			r.fail("invalid literal")
		}
	default:
		r.number()
	}
}

// Valid reports whether data is one JSON value the Reader accepts.
func Valid(data []byte) bool {
	r := NewReader(data)
	r.Skip()
	return r.End() == nil
}

// Raw reads past one value like Skip and returns its text, a slice of
// the input.
func (r *Reader) Raw() []byte {
	r.peek()
	start := r.pos
	if r.Skip(); r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}
