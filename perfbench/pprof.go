package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// A minimal reader for the pprof profile format (gzip-compressed protocol
// buffers, profile.proto), enough to fold CPU samples by package. It reads
// only the fields it needs and skips every other field by wire type.

// Profile is the decoded part of a pprof profile.
type Profile struct {
	SampleTypes []string // "type/unit" per sample value
	Samples     []ProfileSample
	Locations   map[uint64][]uint64 // location id -> function ids, innermost first
	Functions   map[uint64]string   // function id -> name
}

// ProfileSample is one stack with its values.
type ProfileSample struct {
	Locations []uint64 // leaf first
	Values    []int64
}

// ParseProfile decodes a (gzip-compressed or raw) pprof profile.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p := &Profile{Locations: map[uint64][]uint64{}, Functions: map[uint64]string{}}
	var strs []string
	type vt struct{ typ, unit int64 }
	var types []vt
	funcNames := map[uint64]int64{}
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t vt
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t.typ = int64(v)
				} else if n == 2 {
					t.unit = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s ProfileSample
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeatedVarint(wt, v, b, func(x uint64) { s.Locations = append(s.Locations, x) })
				case 2:
					return repeatedVarint(wt, v, b, func(x uint64) { s.Values = append(s.Values, int64(x)) })
				}
				return nil
			})
			p.Samples = append(p.Samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.Locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, t := range types {
		typ, err := str(t.typ)
		if err != nil {
			return nil, err
		}
		unit, err := str(t.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, typ+"/"+unit)
	}
	for id, n := range funcNames {
		name, err := str(n)
		if err != nil {
			return nil, err
		}
		p.Functions[id] = name
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated message")

// eachField calls fn for every field of a protobuf message: varint fields
// get v, length-delimited fields get b, fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wt == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint handles a repeated integer field in either encoding: one
// varint, or a packed run of them.
func repeatedVarint(wireType int, v uint64, b []byte, add func(uint64)) error {
	if wireType == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint; n <= 0 means malformed.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// FoldByPackage sums the CPU value of every sample into the innermost
// taopt/internal package on its stack, named by its first path element
// below internal/ ("bus" for bus/wire); samples with no such frame go to
// "runtime". It returns each package's share of the total.
func (p *Profile) FoldByPackage() map[string]float64 {
	vi := len(p.SampleTypes) - 1
	for i, t := range p.SampleTypes {
		if strings.HasPrefix(t, "cpu/") {
			vi = i
		}
	}
	sums := map[string]float64{}
	var total float64
	for _, s := range p.Samples {
		if vi < 0 || vi >= len(s.Values) {
			continue
		}
		v := float64(s.Values[vi])
		total += v
		sums[p.packageOf(s)] += v
	}
	if total == 0 {
		return sums
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums
}

const modulePrefix = "taopt/internal/"

func (p *Profile) packageOf(s ProfileSample) string {
	for _, loc := range s.Locations {
		for _, fn := range p.Locations[loc] {
			name := p.Functions[fn]
			if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return "runtime"
}

// CrossRow compares one share measured two ways.
type CrossRow struct {
	Name    string  `json:"name"`
	Profile float64 `json:"profile"`
	Timed   float64 `json:"timed"`
	Flagged bool    `json:"flagged"`
}

// crossMargin is how far (absolute share) a profile share and the
// outside-timed share may differ before the row is flagged.
const crossMargin = 0.15

// stepPackages are the packages a tool step runs in, below the run loop.
var stepPackages = []string{"tools", "toller", "device", "app", "ui", "trace"}

// crossCheck folds the pooled pass's CPU profile by package, reports each
// share, and compares two shares against the outside timings: the step
// path's share of a run (the step probe's time per step times the run's
// tool steps, over the run's time), and the tool's share of a step.
func crossCheck(r *run, prof []byte, stepShareOfRun float64) error {
	p, err := ParseProfile(prof)
	if err != nil {
		return err
	}
	shares := p.FoldByPackage()
	for _, pkg := range profilePackages {
		r.layer("profile."+pkg+"_share", shares[pkg])
	}
	var step float64
	for _, pkg := range stepPackages {
		step += shares[pkg]
	}
	by := ByName(r.tr.Spans())
	loop := float64(by["tools.choose"].TotalNS + by["toller.view"].TotalNS + by["toller.perform"].TotalNS)
	var toolShare float64
	if step > 0 {
		toolShare = shares["tools"] / step
	}
	rows := []CrossRow{
		{Name: "step path share of a run", Profile: step, Timed: stepShareOfRun},
		{Name: "tools share of a step", Profile: toolShare, Timed: float64(by["tools.choose"].TotalNS) / loop},
	}
	flagged := 0
	for i := range rows {
		rows[i].Flagged = math.Abs(rows[i].Profile-rows[i].Timed) > crossMargin
		if rows[i].Flagged {
			flagged++
		}
	}
	r.res.CrossCheck = rows
	r.layer("profile.flagged", float64(flagged))
	return nil
}
