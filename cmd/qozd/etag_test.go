package main

import (
	"fmt"
	"hash/fnv"
	"testing"

	"qoz/store"
)

// TestRequestNamesMatchFmt requires the region ETag and the single-flight
// key, built by appending, to be the strings the fmt rendering they
// replaced made, so that no validator a client holds moves: one box and
// several (forty, past the stack buffer), ranks 1 to 8, every variant of
// format, gzip and level, and CRCs and generations of every width.
func TestRequestNamesMatchFmt(t *testing.T) {
	fmtBoxListID := func(boxes []store.Box) string {
		h := fnv.New64a()
		for _, b := range boxes {
			fmt.Fprintf(h, "%v%v", b.Lo, b.Hi)
		}
		return fmt.Sprintf("n%d-%016x", len(boxes), h.Sum64())
	}
	fmtVariant := func(format string, gz bool, level int) string {
		if gz {
			format += "+gzip"
		}
		if level > 1 {
			format += fmt.Sprintf("+l%d", level)
		}
		return format
	}
	fmtETag := func(crc uint32, gen uint64, dtype string, boxes []store.Box, variant string) string {
		id := joinInts(boxes[0].Lo, "x") + "-" + joinInts(boxes[0].Hi, "x")
		if len(boxes) > 1 {
			id = fmtBoxListID(boxes)
		}
		return fmt.Sprintf(`"%08x-g%d-`, crc, gen) + id + "-" + dtype + "-" + variant + `"`
	}
	fmtKey := func(name string, crc uint32, gen uint64, boxes []store.Box, work string) string {
		boxKey := fmt.Sprintf("%v|%v", boxes[0].Lo, boxes[0].Hi)
		if len(boxes) > 1 {
			boxKey = fmtBoxListID(boxes)
		}
		return fmt.Sprintf("%s|%08x-%d|%s|%s", name, crc, gen, boxKey, work)
	}

	many := make([]store.Box, 40)
	for i := range many {
		many[i] = store.Box{Lo: []int{i, 2 * i, 0}, Hi: []int{i + 100000, 2*i + 7, 65536}}
	}
	requests := map[string][]store.Box{
		"one box":        {{Lo: []int{0, 0, 0}, Hi: []int{32, 32, 32}}},
		"one 1-D box":    {{Lo: []int{5}, Hi: []int{1 << 30}}},
		"one 8-D box":    {{Lo: []int{0, 1, 2, 3, 4, 5, 6, 7}, Hi: []int{9, 10, 11, 12, 13, 14, 15, 16}}},
		"two boxes":      {{Lo: []int{0, 0, 0}, Hi: []int{16, 16, 16}}, {Lo: []int{8, 8, 8}, Hi: []int{40, 24, 20}}},
		"two boxes, 2-D": {{Lo: []int{1, 2}, Hi: []int{3, 4}}, {Lo: []int{1, 2}, Hi: []int{3, 5}}},
		"forty boxes":    many,
	}
	for name, boxes := range requests {
		for _, crc := range []uint32{0, 1, 0xabc, 0x7fffffff, 0xffffffff} {
			for _, gen := range []uint64{0, 1, 12345, 1<<64 - 1} {
				for _, format := range []string{"raw", "json"} {
					for _, gz := range []bool{false, true} {
						for _, level := range []int{1, 2, 13} {
							for _, dtype := range []string{"float32", "float64"} {
								variant := regionVariant(format, gz, level)
								if want := fmtVariant(format, gz, level); variant != want {
									t.Fatalf("variant %q, fmt made %q", variant, want)
								}
								if got, want := regionETag(crc, gen, dtype, boxes, variant), fmtETag(crc, gen, dtype, boxes, variant); got != want {
									t.Fatalf("%s: ETag %s, fmt made %s", name, got, want)
								}
							}
						}
					}
				}
				for _, work := range []string{"l1", "l13", "qcount:0:1:2:0:k0"} {
					if got, want := flightKey("f.qozs", crc, gen, boxes, work), fmtKey("f.qozs", crc, gen, boxes, work); got != want {
						t.Fatalf("%s: flight key %s, fmt made %s", name, got, want)
					}
				}
			}
		}
	}
}
