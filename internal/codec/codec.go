// Package codec is the one serializer for structured data: control
// bodies (through rpc.Invoke and rpc.Handle), op-log entries, state
// images, flush manifests, notifications and partition snapshots. It
// imports only the standard library, so every layer can use it.
//
// A message is one version byte followed by its exported struct fields
// in declaration order, read with reflect, so the field order is the
// schema and a new field cannot be left out:
//
//	int kinds     zig-zag varint
//	uint kinds    uvarint
//	bool          one byte, 0 or 1
//	float64       8 bytes, little-endian IEEE 754
//	string []byte uvarint length, then the bytes
//	slice, map    uvarint count, then the elements (string map keys,
//	              ascending)
//	time.Time     its MarshalBinary layout (15 or 16 bytes)
//
// Zero-length slices and maps decode as nil. The decoder checks every
// length against the bytes left before allocating, refuses trailing
// bytes and accepts only the canonical encoding, so what it accepts
// re-encodes to the same bytes; it never aliases its input. Pointers,
// interfaces and other kinds are an error.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"
)

// codecVersion is the first byte of every message. Changing the
// encoding or any message's field list changes it.
const codecVersion = 1

var (
	timeType     = reflect.TypeOf(time.Time{})
	errTruncated = errors.New("truncated")
)

// unixToInternal is time.Time's offset from its year-1 epoch to Unix's.
const unixToInternal = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 24 * 3600

// Marshal encodes a message, or the message v points to, into a new
// buffer: Append onto an empty one.
func Marshal(v interface{}) ([]byte, error) {
	// 64 bytes hold most control bodies without regrowing.
	b, err := Append(make([]byte, 0, 64), v)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Append appends the encoding of a message, or of the message v points
// to, to dst and returns the extended buffer; on error it returns dst
// as it was. A request or response body is encoded by rpc.Invoke and
// rpc.Handle, never by the method's caller or implementation
// (internal/lint's TestOneCodec), and they append it to a pooled
// buffer; other callers encode what they persist or embed.
func Append(dst []byte, v interface{}) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	b, err := appendValue(append(dst, codecVersion), rv)
	if err != nil {
		return dst, fmt.Errorf("codec: marshal %T: %w", v, err)
	}
	return b, nil
}

// Unmarshal decodes data into the message v points to.
func Unmarshal(data []byte, v interface{}) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: unmarshal into %T: not a pointer", v)
	}
	if len(data) == 0 {
		return fmt.Errorf("codec: unmarshal %T: empty message, want codec version %d", v, codecVersion)
	}
	if data[0] != codecVersion {
		return fmt.Errorf("codec: unmarshal %T: codec version %d, want %d", v, data[0], codecVersion)
	}
	d := decoder{data[1:]}
	err := d.value(rv.Elem())
	if err == nil && len(d.b) > 0 {
		err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if err != nil {
		return fmt.Errorf("codec: unmarshal %T: %w", v, err)
	}
	return nil
}

func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint()), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...), nil
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(binary.AppendUvarint(b, uint64(v.Len())), v.Bytes()...), nil
		}
		b = binary.AppendUvarint(b, uint64(v.Len()))
		start := len(b)
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = appendValue(b, v.Index(i))
		}
		if err == nil && v.Len() > 0 && len(b) == start {
			err = fmt.Errorf("%s: elements encode to no bytes", v.Type())
		}
		return b, err
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return b, fmt.Errorf("unsupported map key type %s", v.Type().Key())
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			if b, err = appendValue(b, k); err == nil {
				b, err = appendValue(b, v.MapIndex(k))
			}
			if err != nil {
				return b, err
			}
		}
		return b, nil
	case reflect.Struct:
		if v.Type() == timeType {
			return appendTime(b, timeOf(v))
		}
		for i := 0; i < v.NumField() && err == nil; i++ {
			if f := v.Field(i); f.CanInterface() {
				b, err = appendValue(b, f)
			}
		}
		return b, err
	}
	return b, fmt.Errorf("unsupported type %s", v.Type())
}

// timeOf reads a time.Time field, through its address when it has one
// (Interface on a struct value allocates a copy).
func timeOf(v reflect.Value) time.Time {
	if v.CanAddr() {
		return *v.Addr().Interface().(*time.Time)
	}
	return v.Interface().(time.Time)
}

// appendTime appends t exactly as t.MarshalBinary would (Go 1.22 has no
// allocation-free AppendBinary): a layout version, seconds since year 1,
// nanoseconds, the zone offset in minutes (-1 for UTC) and, in layout
// version 2, the offset's leftover seconds.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	version, offMin, offSec := byte(1), int16(-1), int8(0)
	if t.Location() != time.UTC {
		_, off := t.Zone()
		if off%60 != 0 {
			version, offSec = 2, int8(off%60)
		}
		if off /= 60; off < math.MinInt16 || off == -1 || off > math.MaxInt16 {
			return b, fmt.Errorf("time %v: zone offset not encodable", t)
		}
		offMin = int16(off)
	}
	b = append(b, version)
	b = binary.BigEndian.AppendUint64(b, uint64(t.Unix()+unixToInternal))
	b = binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
	b = binary.BigEndian.AppendUint16(b, uint16(offMin))
	if version == 2 {
		b = append(b, byte(offSec))
	}
	return b, nil
}

// decoder reads one message; b is what is left of it.
type decoder struct{ b []byte }

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	if n > 1 && d.b[n-1] == 0 {
		return 0, errors.New("non-minimal varint")
	}
	d.b = d.b[n:]
	return x, nil
}

// count reads a length or element count; every element takes at least
// one byte, so a count beyond the bytes left is refused before anything
// is allocated for it.
func (d *decoder) count() (int, error) {
	n, err := d.uvarint()
	if err == nil && n > uint64(len(d.b)) {
		err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b))
	}
	return int(n), err
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p, nil
}

func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		if len(d.b) == 0 || d.b[0] > 1 {
			return errors.New("bad bool")
		}
		v.SetBool(d.b[0] == 1)
		d.b = d.b[1:]
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := d.uvarint()
		x := int64(u >> 1)
		if u&1 != 0 {
			x = ^x
		}
		if err == nil && v.OverflowInt(x) {
			err = fmt.Errorf("%d overflows %s", x, v.Type())
		}
		if err == nil {
			v.SetInt(x)
		}
		return err
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, err := d.uvarint()
		if err == nil && v.OverflowUint(x) {
			err = fmt.Errorf("%d overflows %s", x, v.Type())
		}
		if err == nil {
			v.SetUint(x)
		}
		return err
	case reflect.Float64:
		if len(d.b) < 8 {
			return errTruncated
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b)))
		d.b = d.b[8:]
		return nil
	case reflect.String:
		p, err := d.bytes()
		if err == nil {
			v.SetString(string(p))
		}
		return err
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			p, err := d.bytes()
			if err == nil && len(p) > 0 {
				v.SetBytes(append([]byte(nil), p...))
			} else {
				v.SetZero()
			}
			return err
		}
		n, err := d.count()
		if err != nil || n == 0 {
			v.SetZero()
			return err
		}
		// Grow the field in place: MakeSlice would box a slice header
		// per decode. count has bounded n by the bytes left.
		v.SetZero()
		v.Grow(n)
		v.SetLen(n)
		for i := 0; i < n && err == nil; i++ {
			err = d.value(v.Index(i))
		}
		return err
	case reflect.Map:
		t := v.Type()
		if t.Key().Kind() != reflect.String {
			return fmt.Errorf("unsupported map key type %s", t.Key())
		}
		n, err := d.count()
		if err != nil || n == 0 {
			v.SetZero()
			return err
		}
		m := reflect.MakeMapWithSize(t, n)
		var prev reflect.Value
		for i := 0; i < n; i++ {
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			if err := d.value(k); err != nil {
				return err
			}
			if i > 0 && prev.String() >= k.String() {
				return errors.New("map keys not ascending")
			}
			if err := d.value(e); err != nil {
				return err
			}
			m.SetMapIndex(k, e)
			prev = k
		}
		v.Set(m)
		return nil
	case reflect.Struct:
		if v.Type() == timeType {
			return d.time(v.Addr().Interface().(*time.Time))
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInterface() {
				if err := d.value(f); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return fmt.Errorf("unsupported type %s", v.Type())
}

// time reads a time.Time in its MarshalBinary layout and refuses any
// encoding appendTime would not have written.
func (d *decoder) time(t *time.Time) error {
	n := 15
	if len(d.b) > 0 && d.b[0] == 2 {
		n = 16
	}
	if len(d.b) < n {
		return errTruncated
	}
	if err := t.UnmarshalBinary(d.b[:n]); err != nil {
		return err
	}
	var buf [16]byte
	if re, err := appendTime(buf[:0], *t); err != nil || !bytes.Equal(re, d.b[:n]) {
		return errors.New("non-canonical time")
	}
	d.b = d.b[n:]
	return nil
}
