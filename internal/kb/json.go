package kb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Load reads a knowledge base's JSON encoding from r and parses it with
// Parse.
func Load(r io.Reader) (*KB, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("kb: reading: %w", err)
	}
	return Parse(data)
}

// Parse decodes a knowledge base's JSON encoding with Decode and
// validates it.
func Parse(data []byte) (*KB, error) {
	k, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// readAll reads r to its end into one buffer, allocated once when r
// reports how many bytes it holds (as bytes.Reader and strings.Reader
// do). io.ReadAll grows its buffer by a quarter at a time: for the
// 101 KB case-study document it allocates 514 KB.
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	b := bytes.NewBuffer(make([]byte, 0, sized.Len()+bytes.MinRead))
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// Save encodes the knowledge base as indented JSON.
func (k *KB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(k); err != nil {
		return fmt.Errorf("kb: encoding: %w", err)
	}
	return nil
}
