//go:build race

package wire

import "reflect"

// scribble overwrites the message the previous Decode returned, and the
// list elements it exposed, with 0xDB bytes: its borrow ends at the
// next Decode, and a receiver that kept it anyway now reads garbage
// instead of a plausible stale value. Byte payloads are dropped, not
// written: they alias a frame that may already carry another message
// (the fabric poisons a frame itself when it is released). Race builds
// only, so `make race` runs the whole suite against it.
func (d *Decoder) scribble() {
	if d.last != nil {
		poison(reflect.ValueOf(d.last).Elem())
		d.last = nil
	}
}

func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xDBDBDBDBDBDBDBDB)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poison(v.Field(i))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				poison(v.Index(i))
			}
		}
		v.SetZero()
	}
}
