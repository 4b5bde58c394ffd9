package memo

import "axmemo/internal/crc"

// hvr is one Hash Value Register: the architectural context of an
// in-flight CRC computation for one {LUT_ID, TID} pair (§3.2).  Besides
// the CRC register state it tracks when the input queue will have drained
// (the unit absorbs one byte per cycle, Table 4) and, optionally, a shadow
// copy of the exact truncated input stream for collision tracking.
type hvr struct {
	state   uint64 // raw CRC register (pre-XorOut)
	started bool   // any bytes fed since last reset?
	readyAt uint64 // cycle at which all queued bytes are absorbed
	shadow  []byte // exact fed bytes (TrackCollisions only)
	bytes   int    // bytes fed since last reset
}

// hvrFile is the register file of MaxLUTs×Threads Hash Value Registers,
// addressed by {LUT_ID, TID}.
type hvrFile struct {
	regs    []hvr
	threads int
	// hasher is the slicing-by-8 software engine; it computes the same
	// function as the modeled byte-parallel hardware (asserted against
	// the crc package's reference units) while absorbing a whole lane
	// per step.  Timing stays byte-serial: readyAt accounting below
	// charges the Table 4 perCycle rate independently of the engine.
	hasher   *crc.Slicing8
	track    bool
	perCycle int // absorption rate in bytes per cycle
}

func newHVRFile(p crc.Params, threads int, track bool, bytesPerCycle int) *hvrFile {
	return &hvrFile{
		regs:     make([]hvr, MaxLUTs*threads),
		threads:  threads,
		hasher:   crc.NewSlicing8(p),
		track:    track,
		perCycle: bytesPerCycle,
	}
}

func (f *hvrFile) at(lut uint8, tid int) *hvr {
	return &f.regs[int(lut)*f.threads+tid]
}

// feed absorbs data's sizeBytes little-endian bytes into the HVR's CRC
// context at cycle now, returning the cycle at which the unit finishes
// draining them (perCycle bytes per cycle).
func (f *hvrFile) feed(lut uint8, tid int, data uint64, sizeBytes int, now uint64) uint64 {
	r := f.at(lut, tid)
	if !r.started {
		r.state = f.hasher.Params().Init
		r.started = true
		r.readyAt = now
		r.shadow = r.shadow[:0]
		r.bytes = 0
	}
	f.hasher.SetState(r.state)
	f.hasher.FeedWord(data, sizeBytes)
	if f.track {
		for i := 0; i < sizeBytes; i++ {
			r.shadow = append(r.shadow, byte(data>>(8*uint(i))))
		}
	}
	r.state = f.hasher.State()
	r.bytes += sizeBytes
	if now > r.readyAt {
		r.readyAt = now
	}
	r.readyAt += uint64((sizeBytes + f.perCycle - 1) / f.perCycle)
	return r.readyAt
}

// digest finalizes and returns the CRC value of the HVR without resetting
// it; reset clears the context for the next memoization instance.
func (f *hvrFile) digest(lut uint8, tid int) uint64 {
	f.hasher.SetState(f.at(lut, tid).state)
	return f.hasher.Sum()
}

// reset clears the HVR so the next feed starts a fresh hash.
func (f *hvrFile) reset(lut uint8, tid int) {
	r := f.at(lut, tid)
	r.started = false
	r.state = 0
	r.bytes = 0
	// keep shadow capacity; content is reset on next feed
}

// readyAt reports when the HVR's queued input bytes are fully absorbed.
func (f *hvrFile) readyAt(lut uint8, tid int) uint64 {
	return f.at(lut, tid).readyAt
}

// shadowKey returns the exact fed byte stream (collision tracking only).
func (f *hvrFile) shadowKey(lut uint8, tid int) string {
	return string(f.at(lut, tid).shadow)
}

// bytesFed reports the input size of the current memoization instance.
func (f *hvrFile) bytesFed(lut uint8, tid int) int {
	return f.at(lut, tid).bytes
}
