package jsonx

import (
	"encoding/json"
	"reflect"
	"testing"
)

type cell struct {
	Hits uint64 `json:"hits"`
	Note string `json:"note,omitempty"`
}

type record struct {
	Name   string            `json:"name"`
	Cells  [][]cell          `json:"cells"`
	Rows   [][]int           `json:"rows,omitempty"`
	Counts map[string]uint64 `json:"counts"`
	Extra  json.RawMessage   `json:"extra,omitempty"`
	Scale  float64           `json:"scale"`
}

var (
	cellLayout = NewLayout(
		Uint64("hits", func(c *cell) *uint64 { return &c.Hits }),
		String("note", func(c *cell) *string { return &c.Note }).OmitEmpty(),
	)
	recordLayout = NewLayout(
		String("name", func(r *record) *string { return &r.Name }),
		At("cells", func(r *record) *[][]cell { return &r.Cells }, Grid(Object(cellLayout), true)),
		At("rows", func(r *record) *[][]int { return &r.Rows }, Array(Ints, false)).OmitEmpty(),
		At("counts", func(r *record) *map[string]uint64 { return &r.Counts }, Counts),
		At("extra", func(r *record) *json.RawMessage { return &r.Extra }, Blob).OmitEmpty(),
		Float("scale", func(r *record) *float64 { return &r.Scale }),
	)
)

// TestLayoutRoundTrip: a layout writes what encoding/json writes for the
// tagged record, modulo white space and map order, and reads it back to
// the value encoding/json reads.
func TestLayoutRoundTrip(t *testing.T) {
	if err := recordLayout.CheckTags(); err != nil {
		t.Fatal(err)
	}
	in := record{
		Name:   "ladder",
		Cells:  [][]cell{{{Hits: 3}, {Hits: 1, Note: "gap"}}, {}, nil},
		Rows:   [][]int{{1, 2}, {}},
		Counts: map[string]uint64{"z": 1, "a": 2},
		Extra:  json.RawMessage(`{"any":[1,null]}`),
		Scale:  1e-7,
	}
	data, err := recordLayout.Encode(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\"name\":\"ladder\",\"cells\":[\n[{\"hits\":3},{\"hits\":1,\"note\":\"gap\"}],\n[],\nnull\n]," +
		`"rows":[[1,2],[]],"counts":{"a":2,"z":1},"extra":{"any":[1,null]},"scale":1e-7}`
	if string(data) != want {
		t.Fatalf("wrote\n%s\nwant\n%s", data, want)
	}
	var got, ref record
	if unknown, err := recordLayout.Decode(data, &got); err != nil || unknown != nil {
		t.Fatalf("Decode: unknown %q, err %v", unknown, err)
	}
	if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(got, ref) {
		t.Fatalf("read\n%+v\nencoding/json (err %v)\n%+v", got, err, ref)
	}
	if cap(got.Rows[0]) != len(got.Rows[0]) || cap(got.Cells[0]) != len(got.Cells[0]) {
		t.Errorf("rows keep spare capacity: %d/%d, %d/%d",
			len(got.Rows[0]), cap(got.Rows[0]), len(got.Cells[0]), cap(got.Cells[0]))
	}
}

// TestLayoutDecodeReturnsUnknownKeys: an undeclared key at any depth is
// skipped and the first one returned; duplicate keys stay errors.
func TestLayoutDecodeReturnsUnknownKeys(t *testing.T) {
	var got record
	unknown, err := recordLayout.Decode([]byte(`{"cells":[[{"hits":1,"later":{"x":[2]}}]],"name":"n","also":0}`), &got)
	if err != nil || string(unknown) != "later" {
		t.Fatalf("unknown %q, err %v", unknown, err)
	}
	if got.Name != "n" || got.Cells[0][0].Hits != 1 {
		t.Errorf("read %+v", got)
	}
	if unknown, err := recordLayout.Decode([]byte(`{"":1}`), &got); err != nil || unknown == nil || len(unknown) != 0 {
		t.Errorf("empty key: unknown %q, err %v", unknown, err)
	}
	if _, err := recordLayout.Decode([]byte(`{"cells":[[{"hits":1,"hits":2}]]}`), &got); err == nil {
		t.Error("a repeated nested key was accepted")
	}
}

// TestCheckTagsFindsDrift: a key renamed, moved or given another omit
// rule in the layout alone is reported.
func TestCheckTagsFindsDrift(t *testing.T) {
	name := String("name", func(r *record) *string { return &r.Name })
	hits := Uint64("hits", func(c *cell) *uint64 { return &c.Hits })
	note := String("note", func(c *cell) *string { return &c.Note })
	for what, err := range map[string]error{
		"renamed": NewLayout(Uint64("hit", func(c *cell) *uint64 { return &c.Hits }), note.OmitEmpty()).CheckTags(),
		"moved":   NewLayout(note.OmitEmpty(), hits).CheckTags(),
		"omit":    NewLayout(hits, note).CheckTags(),
		"dropped": NewLayout(hits).CheckTags(),
		"record":  NewLayout(name).CheckTags(),
	} {
		if err == nil {
			t.Errorf("%s: CheckTags found nothing", what)
		}
	}
}
