package snapbin

import "fmt"

// XOR-RLE coding for occupancy planes, against a fixed all-zero baseline —
// so it is plain zero-run-length coding. A packed tile plane is mostly
// zero bytes (vacant cells), so it is stored as alternating (zero-run
// length, literal length, literal bytes) groups: each run costs a varint
// and only the nonzero bytes are copied. A literal byte is never zero,
// because a zero byte always extends a run.
//
// Wire form: repeated (uvarint zeroRun, uvarint litLen, litLen bytes),
// ending exactly when zeroRun+litLen sums to the plane size. A final
// zero-run is encoded with litLen 0.

// appendXorRLE appends the run-length coding of plane to dst.
func appendXorRLE(dst, plane []byte) []byte {
	for i := 0; i < len(plane); {
		run := 0
		for i+run < len(plane) && plane[i+run] == 0 {
			run++
		}
		lit := 0
		for i+run+lit < len(plane) && plane[i+run+lit] != 0 {
			lit++
		}
		dst = AppendUvarint(dst, uint64(run))
		dst = AppendUvarint(dst, uint64(lit))
		dst = append(dst, plane[i+run:i+run+lit]...)
		i += run + lit
	}
	if len(plane) == 0 {
		dst = AppendUvarint(dst, 0)
		dst = AppendUvarint(dst, 0)
	}
	return dst
}

// readXorRLE decodes a run-length coding into out (fully overwritten). It
// consumes exactly one plane's coding from r and rejects group lengths that
// overrun the plane.
func readXorRLE(r *Reader, out []byte) error {
	at := 0
	for {
		run, err := r.Uvarint()
		if err != nil {
			return err
		}
		lit, err := r.Uvarint()
		if err != nil {
			return err
		}
		if run+lit > uint64(len(out)-at) {
			return fmt.Errorf("%w: plane run overflows %d-byte plane", ErrMalformed, len(out))
		}
		clear(out[at : at+int(run)])
		at += int(run)
		litBytes, err := r.Bytes(int(lit))
		if err != nil {
			return err
		}
		for k, b := range litBytes {
			if b == 0 {
				// A zero byte inside a literal group means the encoding is
				// not canonical — the writer never produces it, so treat it
				// as corruption rather than accepting an alias.
				return fmt.Errorf("%w: zero byte inside plane literal", ErrMalformed)
			}
			out[at+k] = b
		}
		at += int(lit)
		if at == len(out) {
			return nil
		}
		if lit == 0 && run == 0 {
			return fmt.Errorf("%w: empty plane group", ErrMalformed)
		}
	}
}
