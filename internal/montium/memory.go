package montium

import (
	"fmt"

	"tiledcfd/internal/fixed"
)

// Word is the Montium's 16-bit datapath word.
type Word = int16

// Memory geometry of the modelled core.
const (
	// NumMemories is the number of parallel memories (M01..M10).
	NumMemories = 10
	// MemWords is the capacity of each memory in 16-bit words; M01..M08
	// total the paper's 8K words.
	MemWords = 1024
	// AccumMemories is how many of the memories hold DSCF accumulators
	// (M01..M08 per Figure 11).
	AccumMemories = 8
	// AccumCapacityWords is the paper's "8K words of 16 bits".
	AccumCapacityWords = AccumMemories * MemWords
)

// Memory is one single-cycle 1024-word Montium memory with access
// counters. Address checking is strict: the CFD kernels are supposed to
// know exactly where everything is, and an out-of-range access is a bug.
type Memory struct {
	// Name identifies the memory (M01..M10).
	Name string
	data [MemWords]Word
	// Reads and Writes count the accesses performed.
	Reads, Writes int64
}

// The accessors are small enough to inline into the kernels' inner
// loops: one unsigned compare checks both address bounds, and a fault
// only records its address — the message is formatted out of line, by
// accessError.Error. Every access is still checked and counted.

// Read returns the word at addr.
func (m *Memory) Read(addr int) (Word, error) {
	if uint(addr) >= MemWords {
		return 0, &accessError{m.Name, "read", addr}
	}
	m.Reads++
	return m.data[addr], nil
}

// Write stores w at addr.
func (m *Memory) Write(addr int, w Word) error {
	if uint(addr) >= MemWords {
		return &accessError{m.Name, "write", addr}
	}
	m.Writes++
	m.data[addr] = w
	return nil
}

// ReadComplex reads the complex value stored at complex index idx
// (interleaved re/im at words 2idx, 2idx+1).
func (m *Memory) ReadComplex(idx int) (fixed.Complex, error) {
	if uint(idx) >= MemWords/2 {
		return fixed.Complex{}, &accessError{m.Name, "read", 2 * idx}
	}
	m.Reads += 2
	return fixed.Complex{Re: fixed.Q15(m.data[2*idx]), Im: fixed.Q15(m.data[2*idx+1])}, nil
}

// WriteComplex stores c at complex index idx.
func (m *Memory) WriteComplex(idx int, c fixed.Complex) error {
	if uint(idx) >= MemWords/2 {
		return &accessError{m.Name, "write", 2 * idx}
	}
	m.Writes += 2
	m.data[2*idx], m.data[2*idx+1] = Word(c.Re), Word(c.Im)
	return nil
}

// accessError is an out-of-range access: the memory, the operation and
// the word address (for a complex access, its real word — the first the
// access touches).
type accessError struct {
	mem, op string
	addr    int
}

func (e *accessError) Error() string {
	return fmt.Sprintf("montium: %s %s address %d outside [0,%d)", e.mem, e.op, e.addr, MemWords)
}

// ComplexCapacity returns how many complex values fit in one memory.
func ComplexCapacity() int { return MemWords / 2 }
