package jsonx

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// Layout is the JSON layout of one record type T, declared once as a
// list of fields and interpreted both ways: the writer walks the list
// in order, the reader dispatches each key it meets to its field.
// Build a layout once, at package init; using one allocates nothing
// per record.
type Layout[T any] struct {
	fields []Field[T]
}

// Field is one key of a Layout: how its value in a T is written and
// read, and whether it is left out when empty.
type Field[T any] struct {
	key  string
	omit bool
	// put writes the key and the value unless omit is set and the value
	// is empty: one call, which fetches the value once.
	put  func(w *Writer, v *T, key string, omit bool)
	read func(*Reader, *T)
}

// Kind is how a value of type V that is not a scalar is written and
// read, and when it counts as empty: an array, object or raw value with
// no elements. A record is never empty.
type Kind[V any] struct {
	write func(*Writer, *V)
	read  func(*Reader, *V)
	empty func(*V) bool
}

// NewLayout declares a record's fields in the order they are written.
func NewLayout[T any](fields ...Field[T]) *Layout[T] {
	return &Layout[T]{fields: fields}
}

// At declares the field key of kind k, whose value at returns.
func At[T, V any](key string, at func(*T) *V, k Kind[V]) Field[T] {
	return Field[T]{
		key: key,
		put: func(w *Writer, v *T, key string, omit bool) {
			if p := at(v); !omit || !k.empty(p) {
				w.Key(key)
				k.write(w, p)
			}
		},
		read: func(r *Reader, v *T) { k.read(r, at(v)) },
	}
}

// Int, Int64, Uint64, Float, Bool and String declare the scalar field
// key, whose value at returns; a scalar is empty when it is zero.
func Int[T any](key string, at func(*T) *int) Field[T] {
	return scalar(key, at, (*Writer).Int, (*Reader).Int)
}

func Int64[T any](key string, at func(*T) *int64) Field[T] {
	return scalar(key, at, (*Writer).Int64, (*Reader).Int64)
}

func Uint64[T any](key string, at func(*T) *uint64) Field[T] {
	return scalar(key, at, (*Writer).Uint64, (*Reader).Uint64)
}

func Float[T any](key string, at func(*T) *float64) Field[T] {
	return scalar(key, at, (*Writer).Float, (*Reader).Float)
}

func Bool[T any](key string, at func(*T) *bool) Field[T] {
	return scalar(key, at, (*Writer).Bool, (*Reader).Bool)
}

func String[T any](key string, at func(*T) *string) Field[T] {
	return scalar(key, at, (*Writer).String, (*Reader).String)
}

// scalar is a field of a comparable V that write and read handle.
func scalar[T any, V comparable](key string, at func(*T) *V, write func(*Writer, V), read func(*Reader) V) Field[T] {
	return Field[T]{
		key: key,
		put: func(w *Writer, v *T, key string, omit bool) {
			var zero V
			if x := *at(v); !omit || x != zero {
				write(w.Key(key), x)
			}
		},
		read: func(r *Reader, v *T) { *at(v) = read(r) },
	}
}

// Custom declares the field key with a writer and reader of its own;
// empty says when OmitEmpty leaves it out.
func Custom[T any](key string, write func(*Writer, *T), read func(*Reader, *T), empty func(*T) bool) Field[T] {
	put := func(w *Writer, v *T, key string, omit bool) {
		if !omit || !empty(v) {
			w.Key(key)
			write(w, v)
		}
	}
	return Field[T]{key: key, put: put, read: read}
}

// OmitEmpty leaves the field out of the record when its value is empty,
// as encoding/json's omitempty does.
func (f Field[T]) OmitEmpty() Field[T] {
	f.omit = true
	return f
}

// write writes v as an object of the layout's fields, in order.
func (l *Layout[T]) write(w *Writer, v *T) {
	w.Buf = append(w.Buf, '{')
	for i := range l.fields {
		f := &l.fields[i]
		f.put(w, v, f.key, f.omit)
	}
	w.Buf = append(w.Buf, '}')
}

// read reads an object into v, key by key; null leaves v as it is. A
// key the layout does not declare is skipped, and the first such key of
// the document is kept for Decode to return.
func (l *Layout[T]) read(r *Reader, v *T) {
	next := 0
	for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
		i := l.index(k, next)
		if i < 0 {
			if r.unknown == nil {
				r.unknown = append([]byte{}, k...)
			}
			r.Skip()
			continue
		}
		l.fields[i].read(r, v)
		next = i + 1
	}
}

// index finds key k, trying the field after the last one first: keys
// usually come in the order they are written in.
func (l *Layout[T]) index(k []byte, next int) int {
	if next < len(l.fields) && l.fields[next].key == string(k) {
		return next
	}
	for i := range l.fields {
		if l.fields[i].key == string(k) {
			return i
		}
	}
	return -1
}

// Encode appends v to buf and fails on the first value with no JSON
// form.
func (l *Layout[T]) Encode(buf []byte, v *T) ([]byte, error) {
	w := &Writer{Buf: buf}
	l.write(w, v)
	return w.Buf, w.Err()
}

// Append writes v to w: Encode for a caller that writes many records
// through one Writer, which Encode would otherwise allocate a record.
func (l *Layout[T]) Append(w *Writer, v *T) { l.write(w, v) }

// Decode reads data, one record, into v. It returns the first key, at
// any depth, that no layout declares, nil when there was none; the
// caller decides whether that is an error.
func (l *Layout[T]) Decode(data []byte, v *T) (unknown []byte, err error) {
	r := NewReader(data)
	l.read(r, v)
	return r.unknown, r.End()
}

// CheckTags reports where the layout and T's json struct tags, the same
// record as encoding/json sees it, disagree: in the keys, their order,
// or which are omitempty.
func (l *Layout[T]) CheckTags() error {
	var tags, keys []string
	t := reflect.TypeOf((*T)(nil)).Elem()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if slices.Contains(strings.Split(opts, ","), "omitempty") {
			name += ",omitempty"
		}
		tags = append(tags, name)
	}
	for _, f := range l.fields {
		key := f.key
		if f.omit {
			key += ",omitempty"
		}
		keys = append(keys, key)
	}
	if !slices.Equal(keys, tags) {
		return fmt.Errorf("jsonx: %v layout %q, json tags %q", t, keys, tags)
	}
	return nil
}

// Object is a record of layout l.
func Object[T any](l *Layout[T]) Kind[T] {
	return Kind[T]{write: l.write, read: l.read, empty: func(*T) bool { return false }}
}

// Array is an array of k, on one line or (rows) one line an element;
// nil is written as null.
func Array[E any](k Kind[E], rows bool) Kind[[]E] {
	return list(func(w *Writer, v []E) { writeArray(w, v, rows, k.write) },
		func(r *Reader) []E { return readArray(r, k.read) })
}

// Grid is an array of arrays of k, the outer on one line or (rows) one
// line a row, each row on one line.
func Grid[E any](k Kind[E], rows bool) Kind[[][]E] { return Array(Array(k, false), rows) }

// The arrays of scalars, each row cut from one slab per element type
// and document.
var (
	Ints    = list((*Writer).Ints, (*Reader).Ints)
	Floats  = list((*Writer).Floats, func(r *Reader) []float64 { return scalars(r, &r.floats, (*Reader).Float) })
	Bools   = list(func(w *Writer, v []bool) { WriteArray(w, v, false, (*Writer).Bool) }, (*Reader).Bools)
	Uint64s = list(func(w *Writer, v []uint64) { WriteArray(w, v, false, (*Writer).Uint64) },
		func(r *Reader) []uint64 { return scalars(r, &r.uints, (*Reader).Uint64) })
	// Blob is a value kept as its JSON text, written as it is after a
	// check that it is valid.
	Blob = list(func(w *Writer, v json.RawMessage) { w.Blob(v) },
		func(r *Reader) json.RawMessage { return append(json.RawMessage(nil), r.Raw()...) })
	// Counts is an object of counters, written in sorted key order so
	// equal maps write equal bytes; null is a nil map.
	Counts = Kind[map[string]uint64]{
		write: func(w *Writer, p *map[string]uint64) {
			if *p == nil {
				w.Raw("null")
				return
			}
			keys := make([]string, 0, len(*p))
			for k := range *p {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.Raw("{")
			for i, k := range keys {
				if i > 0 {
					w.Raw(",")
				}
				w.String(k) // a key read back from a file can be any string
				w.Raw(":")
				w.Uint64((*p)[k])
			}
			w.Raw("}")
		},
		read: func(r *Reader, p *map[string]uint64) {
			if r.Null() {
				return
			}
			m := map[string]uint64{}
			for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
				m[string(k)] = r.Uint64()
			}
			*p = m
		},
		empty: func(p *map[string]uint64) bool { return len(*p) == 0 },
	}
)

// list is the kind of a slice that write and read handle whole.
func list[S ~[]E, E any](write func(*Writer, S), read func(*Reader) S) Kind[S] {
	return Kind[S]{
		write: func(w *Writer, p *S) { write(w, *p) },
		read:  func(r *Reader, p *S) { *p = read(r) },
		empty: func(p *S) bool { return len(*p) == 0 },
	}
}
