package code

import (
	"strconv"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// Fingerprint returns the full structural serialization of the code:
// qubits, stabilizers with super-stabilizer membership, gauges and
// logicals. It is a serialization, not a hash, so two codes share a
// fingerprint exactly when they have the same structure; DEM caches key on
// it. The value is memoized until the next mutation; it is built by
// appending, without fmt or per-operator strings.
func (c *Code) Fingerprint() string {
	if fp := c.memo.fp.Load(); fp != nil {
		return *fp
	}
	b := make([]byte, 0, 1024)
	b = append(b, "D:"...)
	for _, q := range c.DataQubits() {
		b = append(appendRowCol(b, q, '.'), ',')
	}
	b = append(b, "S:"...)
	for _, q := range c.SyndromeQubits() {
		b = append(appendRowCol(b, q, '.'), ',')
	}
	b = append(b, "stabs:"...)
	for _, s := range c.stabs {
		b = appendOp(append(b, '{'), s.Op)
		b = appendRowCol(append(b, '@'), s.Ancilla, '.')
		b = strconv.AppendBool(append(b, '/'), s.Direct)
		b = append(b, "/["...)
		for i, id := range s.MemberIDs {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, "]}"...)
	}
	b = append(b, "gauges:"...)
	for _, g := range c.gauges {
		b = appendOp(append(b, '{'), g.Op)
		b = appendRowCol(append(b, '@'), g.Ancilla, '.')
		b = append(strconv.AppendBool(append(b, '/'), g.Direct), '}')
	}
	b = appendOp(append(b, "LX:"...), c.logicalX)
	b = appendOp(append(b, ",LZ:"...), c.logicalZ)
	fp := string(b)
	c.memo.fp.Store(&fp)
	return fp
}

// appendRowCol appends "<row><sep><col>".
func appendRowCol(b []byte, q lattice.Coord, sep byte) []byte {
	b = append(strconv.AppendInt(b, int64(q.Row), 10), sep)
	return strconv.AppendInt(b, int64(q.Col), 10)
}

// appendOp appends the bytes of o.String() ("X(1,1) Y(1,3) ..." over the
// sorted support, "I" for the identity) by merging the X and Z supports.
func appendOp(b []byte, o pauli.Op) []byte {
	xs, zs := o.XSupport(), o.ZSupport()
	if len(xs) == 0 && len(zs) == 0 {
		return append(b, 'I')
	}
	for i, j := 0, 0; i < len(xs) || j < len(zs); {
		if i+j > 0 {
			b = append(b, ' ')
		}
		var q lattice.Coord
		switch {
		case j == len(zs) || (i < len(xs) && xs[i].Less(zs[j])):
			q = xs[i]
			b = append(b, 'X')
			i++
		case i == len(xs) || zs[j].Less(xs[i]):
			q = zs[j]
			b = append(b, 'Z')
			j++
		default:
			q = xs[i]
			b = append(b, 'Y')
			i++
			j++
		}
		b = append(appendRowCol(append(b, '('), q, ','), ')')
	}
	return b
}
