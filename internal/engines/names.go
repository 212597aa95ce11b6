package engines

import (
	"fmt"
	"strconv"
)

// Task names are built once per task, which on the virtual cluster is a
// measurable share of a completion; these spell out what fmt would write.

// mdTaskName is fmt.Sprintf("md-r%03d-c%02d", id, cycle).
func mdTaskName(id, cycle int) string {
	if id < 0 || cycle < 0 {
		return fmt.Sprintf("md-r%03d-c%02d", id, cycle)
	}
	var buf [48]byte
	b := appendPadded(append(buf[:0], "md-r"...), id, 3)
	b = appendPadded(append(b, "-c"...), cycle, 2)
	return string(b)
}

// speTaskName is fmt.Sprintf("spe-r%03d", id).
func speTaskName(id int) string {
	if id < 0 {
		return fmt.Sprintf("spe-r%03d", id)
	}
	var buf [32]byte
	return string(appendPadded(append(buf[:0], "spe-r"...), id, 3))
}

// appendPadded appends n, which must not be negative, as %0*d with the
// given width does.
func appendPadded(b []byte, n, width int) []byte {
	for lim := 10; width > 1; width, lim = width-1, lim*10 {
		if n < lim {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(n), 10)
}
