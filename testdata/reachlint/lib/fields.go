package lib

import (
	"encoding/json"
	"fmt"
	"io"
)

// Counters holds a field of each kind the field rule flags or keeps.
type Counters struct {
	Written  int // only ever assigned: flagged
	TestRead int // read only by lib_test.go: flagged
	Kept     int // read by nothing, but allowlisted
	Stale    int // read by Report, yet allowlisted: a stale entry
}

// Doc's field is read by encoding/json's reflection.
type Doc struct{ Encoded int }

// Point has no String method, so %v reads its field by reflection.
type Point struct{ X int }

// Box is generic: reading Box[int].Val reads Box.Val.
type Box[T any] struct{ Val T }

// Report writes, reads and encodes one of each.
func Report(w io.Writer) error {
	c := Counters{Written: 1}
	c.Written++
	c.TestRead += 2
	c.Kept = 3
	b := Box[int]{Val: 4}
	fmt.Fprintln(w, c.Stale, b.Val, Point{X: 5})
	return json.NewEncoder(w).Encode(Doc{Encoded: 6})
}
