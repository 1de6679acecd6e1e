package container

// What the external tests (inflate_test.go) reach inside the package.
var (
	InflateSection = inflateSection
	CheckDeclared  = checkDeclared
	DeflateInput   = deflateInput
)

// StoredSection is a section as a container frames it: its declared raw
// length and the bytes stored for it.
type StoredSection struct {
	RawLen int
	Stored []byte
}

// StoredSections returns the framed sections of an encoded container.
func StoredSections(buf []byte) ([]StoredSection, error) {
	var out []StoredSection
	_, _, _, err := walkSections(buf, false, func(_ uint8, rawLen uint64, stored []byte, _ int) error {
		out = append(out, StoredSection{int(rawLen), stored})
		return nil
	})
	return out, err
}
