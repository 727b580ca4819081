package isa

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/memsim"
)

// Port is a memory-mapped I/O hook: loads and stores to its address are
// routed to Go handlers instead of simulated RAM. The debug port
// (program.go) and simple peripherals hang off ports.
type Port struct {
	Read  func(env *device.Env) uint16
	Write func(env *device.Env, v uint16)
}

// CPU is the MSP430-subset interpreter. All architectural state is
// volatile: the register file lives here and is zeroed by Reset, exactly
// like hardware losing power. Memory is the device's simulated address
// space, reached through the energy-metered Env.
type CPU struct {
	R [16]uint16

	ports map[memsim.Addr]Port
	// Dense mirror of the ports map: MMIO addresses cluster in the SFR
	// page, so the hot load/store paths resolve a port with one subtract
	// and one bounds check instead of a map probe per memory access.
	portBase memsim.Addr
	portTab  []*Port

	// lastExtAddrVal is the address the most recent extension word was
	// fetched from; PC-relative (symbolic) operands resolve against it.
	lastExtAddrVal uint16

	// intDepth tracks nested interrupt service (RETI decrements).
	intDepth int
	// halted is set by the HALT debug port; the program wrapper treats it
	// as normal completion.
	halted bool

	// instructions retired since the last Reset (diagnostics).
	retired uint64

	// decoded holds the instructions Step decodes, not served from the
	// cache, while they execute: one per nesting depth, since an
	// instruction's env call can run the ISR, which steps this CPU again
	// before the outer instruction finishes. depth is the number of such
	// Steps in flight. A panic that unwinds a Step leaves depth raised, so
	// Reset clears it.
	decoded []Inst
	depth   int

	// Predecoded-instruction cache over the flashed image, keyed by PC.
	// Decoding is pure — the machine words fully determine the Inst — so a
	// cached entry is valid until something writes the underlying words.
	// Invalidation hangs off the code region's WriteHook, which keeps
	// self-modifying (and self-corrupting, as in Fig. 7) programs faithful:
	// a wild store into code drops the stale entries and the next fetch
	// re-decodes whatever garbage is there now.
	//
	// Execution over the cache is threaded-code style: each entry carries
	// its handler (dcExec, selected once at fill time), straight-line runs
	// chain from entry to entry under a PC guard without returning to the
	// Step probe, and pairs of pure register/constant ALU instructions fuse
	// into a superinstruction (dcFused) that skips the generic operand
	// machinery for both halves.
	dcRegion *memsim.Region
	dcOrg    uint16
	dcEnd    uint16
	dcInst   []Inst
	dcValid  []bool
	dcExec   []execFn
	dcFused  []int32 // successor word index of a fused ALU pair, -1 if none
}

// execFn is a selected instruction handler: the threaded-dispatch unit.
type execFn func(c *CPU, env *device.Env, i *Inst)

// NewCPU returns a CPU with no ports mapped.
func NewCPU() *CPU {
	return &CPU{ports: make(map[memsim.Addr]Port)}
}

// MapPort installs an MMIO port at addr (word access).
func (c *CPU) MapPort(addr memsim.Addr, p Port) {
	c.ports[addr] = p
	c.rebuildPortTab()
}

// rebuildPortTab regenerates the dense port lookup table from the map.
func (c *CPU) rebuildPortTab() {
	var lo, hi memsim.Addr
	first := true
	for a := range c.ports {
		if first || a < lo {
			lo = a
		}
		if first || a > hi {
			hi = a
		}
		first = false
	}
	if first {
		c.portBase, c.portTab = 0, nil
		return
	}
	c.portBase = lo
	c.portTab = make([]*Port, hi-lo+1)
	for a, p := range c.ports {
		p := p
		c.portTab[a-lo] = &p
	}
}

// port resolves an address against the dense MMIO table; nil means plain
// memory. The unsigned subtraction folds the a < portBase case into the
// single bounds check.
func (c *CPU) port(a memsim.Addr) *Port {
	if off := uint32(a) - uint32(c.portBase); off < uint32(len(c.portTab)) {
		return c.portTab[off]
	}
	return nil
}

// Reset models a power-on reset: volatile register state clears, execution
// restarts at the reset vector (entry), with a fresh stack.
func (c *CPU) Reset(entry, stackTop uint16) {
	c.R = [16]uint16{}
	c.R[PC] = entry
	c.R[SP] = stackTop
	c.intDepth = 0
	c.halted = false
	c.retired = 0
	c.depth = 0
}

// Halted reports whether the HALT port stopped the program.
func (c *CPU) Halted() bool { return c.halted }

// Retired returns the number of instructions executed since reset.
func (c *CPU) Retired() uint64 { return c.retired }

// InInterrupt reports whether an ISR is executing.
func (c *CPU) InInterrupt() bool { return c.intDepth > 0 }

// Interrupt vectors control to the handler: the hardware pushes PC then
// SR, clears GIE, and loads the vector.
func (c *CPU) Interrupt(env *device.Env, vector uint16) {
	c.push(env, c.R[PC])
	c.push(env, c.R[SR])
	c.R[SR] &^= GIE
	c.R[PC] = vector
	c.intDepth++
}

// EnableDecodeCache attaches a predecoded-instruction cache covering
// sizeBytes of region r starting at org (the flashed image). It registers
// an invalidation hook on the region, composing with any hook already
// installed.
func (c *CPU) EnableDecodeCache(r *memsim.Region, org uint16, sizeBytes int) {
	n := sizeBytes / 2
	if n <= 0 {
		return
	}
	c.dcRegion = r
	c.dcOrg = org
	c.dcEnd = org + uint16(2*n)
	c.dcInst = make([]Inst, n)
	c.dcValid = make([]bool, n)
	c.dcExec = make([]execFn, n)
	c.dcFused = make([]int32, n)
	for i := range c.dcFused {
		c.dcFused[i] = -1
	}
	prev := r.WriteHook
	r.WriteHook = func(a memsim.Addr, bytes int) {
		if prev != nil {
			prev(a, bytes)
		}
		c.invalidate(uint16(a), bytes)
	}
}

// invalidate drops cache entries that could decode through any written word.
// An instruction spans up to two extension words, so a write to word i can
// change instructions starting at words i-2 .. i. Fused pairs reach further:
// a pair starting at word i can span up to six words, so fusion links are
// cleared over the widened window.
func (c *CPU) invalidate(a uint16, bytes int) {
	lo := (int(a)-int(c.dcOrg))/2 - 2
	hi := (int(a) + bytes - 1 - int(c.dcOrg)) / 2
	if hi >= len(c.dcValid) {
		hi = len(c.dcValid) - 1
	}
	for i := max(lo, 0); i <= hi; i++ {
		c.dcValid[i] = false
	}
	for i := max(lo-3, 0); i <= hi; i++ {
		c.dcFused[i] = -1
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Step executes exactly one instruction. Power failure unwinds from inside
// the memory accesses; a decode failure (executing garbage or data) panics
// with a MemoryFault-equivalent wedge, matching what an MCU does when PC
// walks into a corrupted region.
//
// Single-stepping callers (the ISR wrapper, debug consoles, tests) rely on
// the one-instruction contract; bulk execution goes through RunChain, which
// shares the same env call sequence instruction for instruction.
func (c *CPU) Step(env *device.Env) error {
	c.retired++
	pc0 := c.R[PC]
	cached := c.dcValid != nil && pc0 >= c.dcOrg && pc0 < c.dcEnd && pc0&1 == 0
	i := int(pc0-c.dcOrg) / 2
	if cached && c.dcValid[i] {
		inst := &c.dcInst[i]
		c.fetchTicks(env, inst.Words)
		c.dcExec[i](c, env, inst)
		return nil
	}
	// Decode into the slot of this nesting depth, so the instruction does
	// not escape to the heap. A nested Step that grows decoded leaves this
	// slot in the old array, which stays valid: nothing writes it again.
	if c.depth == len(c.decoded) {
		c.decoded = append(c.decoded, Inst{})
	}
	inst := &c.decoded[c.depth]
	c.depth++
	var err error
	if *inst, err = c.fetchDecode(env, pc0); err == nil {
		if cached && i+inst.Words <= len(c.dcInst) {
			c.fillEntry(i, *inst)
		}
		inst.exec()(c, env, inst)
	}
	c.depth--
	return err
}

// RunChain executes at least one instruction and then keeps going through
// cached straight-line successors (and fused ALU pairs) without returning
// to the dispatch probe. The env call sequence — fetch ticks, operand
// accesses, compute cycles — is identical to an equivalent series of Step
// calls, so power failures, interrupts, and energy accounting land on
// exactly the same cycles; only the Go-level call overhead differs. The
// chain breaks on taken branches, calls, returns, halts, cache
// invalidation, or leaving the cached region.
func (c *CPU) RunChain(env *device.Env) error {
	pc0 := c.R[PC]
	if c.dcValid != nil && pc0 >= c.dcOrg && pc0 < c.dcEnd && pc0&1 == 0 {
		if i := int(pc0-c.dcOrg) / 2; c.dcValid[i] {
			c.retired++
			c.runCached(env, i)
			return nil
		}
	}
	return c.Step(env)
}

// fillEntry caches a decoded instruction with its selected handler and
// refreshes fusion links: the new entry may lead a pure-ALU pair, and it may
// complete a pair whose lead was cached earlier.
func (c *CPU) fillEntry(i int, inst Inst) {
	c.dcInst[i] = inst
	c.dcExec[i] = inst.exec()
	c.dcValid[i] = true
	c.fuseAt(i)
	for k := max(i-3, 0); k < i; k++ {
		if c.dcValid[k] && k+c.dcInst[k].Words == i {
			c.fuseAt(k)
		}
	}
}

// fuseAt records a fused superinstruction link at lead entry k when both k
// and its fall-through successor are pure register/constant ALU
// instructions — the hottest decode pairs (inc/inc/add-style register
// loops) by a wide margin.
func (c *CPU) fuseAt(k int) {
	c.dcFused[k] = -1
	if !pureALU(&c.dcInst[k]) {
		return
	}
	j := k + c.dcInst[k].Words
	if j < len(c.dcValid) && c.dcValid[j] && pureALU(&c.dcInst[j]) {
		c.dcFused[k] = int32(j)
	}
}

// pureALU reports whether the instruction is a Format I operation whose
// operands live entirely in registers and generated/immediate constants and
// whose destination is a register other than PC: it cannot touch memory or
// ports, cannot halt, and cannot branch, so a pair of them fuses safely.
func pureALU(i *Inst) bool {
	if i.Kind != KindTwo || i.Dst.Mode != ModeRegister || i.Dst.Reg == PC {
		return false
	}
	if _, ok := ConstGen(i.Src); ok {
		return true
	}
	switch i.Src.Mode {
	case ModeRegister:
		return i.Src.Reg != PC
	case ModeIndirectInc:
		return i.Src.Reg == PC // #imm
	}
	return false
}

// runCached executes the cached entry at word index i and then chains
// through straight-line successors: as long as the executed instruction left
// PC exactly at the next cached entry (the PC guard — taken jumps, calls,
// faults, and self-modifying stores all fail it), execution continues
// without returning to the Step probe.
func (c *CPU) runCached(env *device.Env, i int) {
	for {
		if j := c.dcFused[i]; j >= 0 && c.dcValid[j] {
			next, ok := c.execFused(env, i, int(j))
			if !ok {
				return
			}
			i = next
			continue
		}
		inst := &c.dcInst[i]
		c.fetchTicks(env, inst.Words)
		c.dcExec[i](c, env, inst)
		j := i + inst.Words
		if c.halted || j >= len(c.dcValid) || !c.dcValid[j] ||
			c.R[PC] != c.dcOrg+uint16(2*j) {
			return
		}
		c.retired++
		i = j
	}
}

// execFused runs the fused ALU pair (i, j) through the specialized
// register/constant executor, skipping the generic operand machinery for
// both halves. The env call sequence — word-fetch ticks then the single
// compute cycle per instruction — is identical to unfused execution, so
// power failures and interrupts land on exactly the same cycles. Guards
// re-check between the halves because an interrupt service routine running
// inside a fetch tick may rewrite code or registers.
func (c *CPU) execFused(env *device.Env, i, j int) (next int, ok bool) {
	c.fetchTicks(env, c.dcInst[i].Words)
	c.aluExec(env, &c.dcInst[i])
	if c.halted || !c.dcValid[j] || c.R[PC] != c.dcOrg+uint16(2*j) {
		return 0, false
	}
	c.retired++
	inst2 := &c.dcInst[j]
	c.fetchTicks(env, inst2.Words)
	c.aluExec(env, inst2)
	k := j + inst2.Words
	if c.halted || k >= len(c.dcValid) || !c.dcValid[k] ||
		c.R[PC] != c.dcOrg+uint16(2*k) {
		return 0, false
	}
	c.retired++
	return k, true
}

// fetchTicks charges the word fetches of a cached instruction with
// cycle-for-cycle the same timing, PC movement, and access accounting as the
// fetch-and-decode path — including mid-instruction power failure points
// between word fetches and the quirk that PC-relative operands resolve
// against the address of the last extension word.
func (c *CPU) fetchTicks(env *device.Env, words int) {
	for w := 0; w < words; w++ {
		if w > 0 {
			c.lastExtAddrVal = c.R[PC]
		}
		env.Compute(device.CyclesLoad)
		c.dcRegion.Reads++
		c.R[PC] += 2
	}
}

// exec selects the handler for an instruction: the one-time switch that
// threaded dispatch pays per cache fill instead of per execution.
func (i *Inst) exec() execFn {
	switch i.Kind {
	case KindJump:
		return (*CPU).execJump
	case KindOne:
		if i.Op == Op2RETI {
			return (*CPU).execReti
		}
		return (*CPU).execOne
	case KindTwo:
		if pureALU(i) {
			return (*CPU).aluExec
		}
		return (*CPU).execTwo
	}
	return func(c *CPU, env *device.Env, i *Inst) {}
}

func (c *CPU) fetchDecode(env *device.Env, pc0 uint16) (Inst, error) {
	w0 := c.fetch(env)
	inst, err := Decode(w0, func() (uint16, error) {
		// Extension words fetch through the same metered path. Their
		// addresses matter for PC-relative (symbolic) operands.
		c.lastExtAddrVal = c.R[PC]
		return c.fetch(env), nil
	})
	if err != nil {
		return Inst{}, fmt.Errorf("isa: at %#04x: %w", pc0, err)
	}
	return inst, nil
}

func (c *CPU) fetch(env *device.Env) uint16 {
	w := c.loadWord(env, memsim.Addr(c.R[PC]))
	c.R[PC] += 2
	return w
}

// loadWord reads through a port or simulated memory.
func (c *CPU) loadWord(env *device.Env, a memsim.Addr) uint16 {
	if p := c.port(a); p != nil {
		env.Compute(device.CyclesLoad)
		if p.Read != nil {
			return p.Read(env)
		}
		return 0
	}
	return env.LoadWord(a)
}

func (c *CPU) storeWord(env *device.Env, a memsim.Addr, v uint16) {
	if p := c.port(a); p != nil {
		env.Compute(device.CyclesStore)
		if p.Write != nil {
			p.Write(env, v)
		}
		return
	}
	env.StoreWord(a, v)
}

func (c *CPU) loadByte(env *device.Env, a memsim.Addr) uint16 {
	if c.port(a) != nil {
		return c.loadWord(env, a) & 0xFF
	}
	return uint16(env.LoadByte(a))
}

func (c *CPU) storeByte(env *device.Env, a memsim.Addr, v uint16) {
	if c.port(a) != nil {
		c.storeWord(env, a, v&0xFF)
		return
	}
	env.StoreByte(a, byte(v))
}

func (c *CPU) push(env *device.Env, v uint16) {
	c.R[SP] -= 2
	c.storeWord(env, memsim.Addr(c.R[SP]), v)
}

func (c *CPU) pop(env *device.Env) uint16 {
	v := c.loadWord(env, memsim.Addr(c.R[SP]))
	c.R[SP] += 2
	return v
}

// resolved is an evaluated operand: a value plus, for memory operands, the
// address to write back to.
type resolved struct {
	value uint16
	addr  memsim.Addr
	isReg bool
	reg   int
	isMem bool
}

// evalOperand reads an operand's value and location.
func (c *CPU) evalOperand(env *device.Env, o Operand, byteOp bool) resolved {
	if v, ok := ConstGen(o); ok {
		return resolved{value: maskByte(v, byteOp)}
	}
	switch o.Mode {
	case ModeRegister:
		return resolved{value: maskByte(c.R[o.Reg], byteOp), isReg: true, reg: o.Reg}
	case ModeIndexed:
		var addr memsim.Addr
		switch o.Reg {
		case SR: // absolute
			addr = memsim.Addr(o.X)
		case PC: // symbolic: X relative to the extension word's address
			addr = memsim.Addr(c.lastExtAddrVal + o.X)
		default:
			addr = memsim.Addr(c.R[o.Reg] + o.X)
		}
		return c.memOperand(env, addr, byteOp)
	case ModeIndirect:
		return c.memOperand(env, memsim.Addr(c.R[o.Reg]), byteOp)
	case ModeIndirectInc:
		if o.Reg == PC { // immediate
			return resolved{value: maskByte(o.X, byteOp)}
		}
		addr := memsim.Addr(c.R[o.Reg])
		step := uint16(2)
		if byteOp {
			step = 1
		}
		c.R[o.Reg] += step
		return c.memOperand(env, addr, byteOp)
	}
	return resolved{}
}

func (c *CPU) memOperand(env *device.Env, addr memsim.Addr, byteOp bool) resolved {
	r := resolved{addr: addr, isMem: true}
	if byteOp {
		r.value = c.loadByte(env, addr)
	} else {
		r.value = c.loadWord(env, addr)
	}
	return r
}

// writeBack stores a result into an evaluated destination.
func (c *CPU) writeBack(env *device.Env, dst resolved, v uint16, byteOp bool) {
	switch {
	case dst.isReg:
		if byteOp {
			c.R[dst.reg] = v & 0xFF // byte ops clear the high byte
		} else {
			c.R[dst.reg] = v
		}
	case dst.isMem:
		if byteOp {
			c.storeByte(env, dst.addr, v)
		} else {
			c.storeWord(env, dst.addr, v)
		}
	}
}

func maskByte(v uint16, byteOp bool) uint16 {
	if byteOp {
		return v & 0xFF
	}
	return v
}

// jumpTaken is the condition table for the jump format, indexed by Op.
var jumpTaken = [8]func(sr uint16) bool{
	JNE: func(sr uint16) bool { return sr&FlagZ == 0 },
	JEQ: func(sr uint16) bool { return sr&FlagZ != 0 },
	JNC: func(sr uint16) bool { return sr&FlagC == 0 },
	JC:  func(sr uint16) bool { return sr&FlagC != 0 },
	JN:  func(sr uint16) bool { return sr&FlagN != 0 },
	JGE: func(sr uint16) bool { return (sr&FlagN != 0) == (sr&FlagV != 0) },
	JL:  func(sr uint16) bool { return (sr&FlagN != 0) != (sr&FlagV != 0) },
	JMP: func(sr uint16) bool { return true },
}

func (c *CPU) execJump(env *device.Env, i *Inst) {
	if jumpTaken[i.Op](c.R[SR]) {
		c.R[PC] += uint16(2 * i.Offset)
	}
}

func (c *CPU) execReti(env *device.Env, i *Inst) {
	c.R[SR] = c.pop(env)
	c.R[PC] = c.pop(env)
	if c.intDepth > 0 {
		c.intDepth--
	}
}

// oneExec is the Format II handler table, indexed by Op. RETI is dispatched
// separately (it evaluates no operand and charges no compute cycle).
var oneExec = [8]func(c *CPU, env *device.Env, i *Inst, src resolved){
	Op2RRC:  (*CPU).opRRC,
	Op2SWPB: (*CPU).opSWPB,
	Op2RRA:  (*CPU).opRRA,
	Op2SXT:  (*CPU).opSXT,
	Op2PUSH: (*CPU).opPUSH,
	Op2CALL: (*CPU).opCALL,
}

func (c *CPU) execOne(env *device.Env, i *Inst) {
	src := c.evalOperand(env, i.Src, i.Byte)
	env.Compute(1)
	oneExec[i.Op](c, env, i, src)
}

func (c *CPU) opRRC(env *device.Env, i *Inst, src resolved) {
	carryIn := c.R[SR] & FlagC
	v := src.value
	newC := v & 1
	v >>= 1
	if carryIn != 0 {
		if i.Byte {
			v |= 0x80
		} else {
			v |= 0x8000
		}
	}
	c.setFlagsLogic(v, i.Byte)
	c.setFlag(FlagC, newC != 0)
	c.setFlag(FlagV, false)
	c.writeBack(env, src, v, i.Byte)
}

func (c *CPU) opRRA(env *device.Env, i *Inst, src resolved) {
	v := src.value
	newC := v & 1
	if i.Byte {
		v = (v >> 1) | (v & 0x80)
	} else {
		v = (v >> 1) | (v & 0x8000)
	}
	c.setFlagsLogic(v, i.Byte)
	c.setFlag(FlagC, newC != 0)
	c.setFlag(FlagV, false)
	c.writeBack(env, src, v, i.Byte)
}

func (c *CPU) opSWPB(env *device.Env, i *Inst, src resolved) {
	v := src.value>>8 | src.value<<8
	c.writeBack(env, src, v, false)
}

func (c *CPU) opSXT(env *device.Env, i *Inst, src resolved) {
	v := src.value & 0xFF
	if v&0x80 != 0 {
		v |= 0xFF00
	}
	c.setFlagsLogic(v, false)
	c.setFlag(FlagC, v != 0)
	c.setFlag(FlagV, false)
	c.writeBack(env, src, v, false)
}

func (c *CPU) opPUSH(env *device.Env, i *Inst, src resolved) {
	c.push(env, src.value)
}

func (c *CPU) opCALL(env *device.Env, i *Inst, src resolved) {
	c.push(env, c.R[PC])
	c.R[PC] = src.value
}

// twoExec is the Format I handler table, indexed by Op. Handlers receive
// both operands already evaluated and the compute cycle already charged, so
// the generic and fused paths share the exact op semantics.
var twoExec = [16]func(c *CPU, env *device.Env, i *Inst, src, dst resolved){
	OpMOV:  (*CPU).opMOV,
	OpADD:  (*CPU).opADD,
	OpADDC: (*CPU).opADDC,
	OpSUBC: (*CPU).opSUBC,
	OpSUB:  (*CPU).opSUB,
	OpCMP:  (*CPU).opCMP,
	OpDADD: (*CPU).opDADD,
	OpBIT:  (*CPU).opBIT,
	OpBIC:  (*CPU).opBIC,
	OpBIS:  (*CPU).opBIS,
	OpXOR:  (*CPU).opXOR,
	OpAND:  (*CPU).opAND,
}

func (c *CPU) execTwo(env *device.Env, i *Inst) {
	src := c.evalOperand(env, i.Src, i.Byte)
	dst := c.evalOperand(env, i.Dst, i.Byte)
	env.Compute(1)
	twoExec[i.Op](c, env, i, src, dst)
}

// aluExec is the specialized executor for pure register/constant Format I
// instructions (see pureALU): operand evaluation collapses to direct
// register and constant reads, with the compute cycle charged at the same
// point as the generic path.
func (c *CPU) aluExec(env *device.Env, i *Inst) {
	var s uint16
	if v, ok := ConstGen(i.Src); ok {
		s = v
	} else if i.Src.Mode == ModeRegister {
		s = c.R[i.Src.Reg]
	} else {
		s = i.Src.X // #imm
	}
	src := resolved{value: maskByte(s, i.Byte)}
	dst := resolved{value: maskByte(c.R[i.Dst.Reg], i.Byte), isReg: true, reg: i.Dst.Reg}
	env.Compute(1)
	twoExec[i.Op](c, env, i, src, dst)
}

func (c *CPU) opMOV(env *device.Env, i *Inst, src, dst resolved) {
	c.writeBack(env, dst, src.value, i.Byte)
}

func (c *CPU) opADD(env *device.Env, i *Inst, src, dst resolved) {
	c.arith(env, dst, dst.value, src.value, 0, i.Byte, true)
}

func (c *CPU) opADDC(env *device.Env, i *Inst, src, dst resolved) {
	c.arith(env, dst, dst.value, src.value, c.carry(), i.Byte, true)
}

func (c *CPU) opSUB(env *device.Env, i *Inst, src, dst resolved) {
	c.arith(env, dst, dst.value, ^src.value&mask(i.Byte), 1, i.Byte, true)
}

func (c *CPU) opSUBC(env *device.Env, i *Inst, src, dst resolved) {
	c.arith(env, dst, dst.value, ^src.value&mask(i.Byte), c.carry(), i.Byte, true)
}

func (c *CPU) opCMP(env *device.Env, i *Inst, src, dst resolved) {
	c.arith(env, dst, dst.value, ^src.value&mask(i.Byte), 1, i.Byte, false)
}

func (c *CPU) opBIT(env *device.Env, i *Inst, src, dst resolved) {
	v := dst.value & src.value
	c.setFlagsLogic(v, i.Byte)
	c.setFlag(FlagC, v != 0)
	c.setFlag(FlagV, false)
}

func (c *CPU) opBIC(env *device.Env, i *Inst, src, dst resolved) {
	c.writeBack(env, dst, dst.value&^src.value, i.Byte)
}

func (c *CPU) opBIS(env *device.Env, i *Inst, src, dst resolved) {
	c.writeBack(env, dst, dst.value|src.value, i.Byte)
}

func (c *CPU) opXOR(env *device.Env, i *Inst, src, dst resolved) {
	d, s := dst.value, src.value
	v := (d ^ s) & mask(i.Byte)
	c.setFlagsLogic(v, i.Byte)
	c.setFlag(FlagC, v != 0)
	c.setFlag(FlagV, signBit(d, i.Byte) && signBit(s, i.Byte))
	c.writeBack(env, dst, v, i.Byte)
}

func (c *CPU) opAND(env *device.Env, i *Inst, src, dst resolved) {
	v := dst.value & src.value & mask(i.Byte)
	c.setFlagsLogic(v, i.Byte)
	c.setFlag(FlagC, v != 0)
	c.setFlag(FlagV, false)
	c.writeBack(env, dst, v, i.Byte)
}

func (c *CPU) opDADD(env *device.Env, i *Inst, src, dst resolved) {
	v, carry := bcdAdd(dst.value, src.value, c.carry(), i.Byte)
	c.setFlagsLogic(v, i.Byte)
	c.setFlag(FlagC, carry)
	c.writeBack(env, dst, v, i.Byte)
}

// arith performs d + s + cin with full flag semantics, optionally writing
// back (CMP/BIT do not).
func (c *CPU) arith(env *device.Env, dst resolved, d, s, cin uint16, byteOp, write bool) {
	m := mask(byteOp)
	sum32 := uint32(d&m) + uint32(s&m) + uint32(cin)
	v := uint16(sum32) & m
	carry := sum32 > uint32(m)
	dN, sN, rN := signBit(d, byteOp), signBit(s, byteOp), signBit(v, byteOp)
	overflow := (dN == sN) && (rN != dN)
	c.setFlagsLogic(v, byteOp)
	c.setFlag(FlagC, carry)
	c.setFlag(FlagV, overflow)
	if write {
		c.writeBack(env, dst, v, byteOp)
	}
}

// bcdAdd performs the decimal (BCD) addition of DADD: each 4-bit digit
// adds with decimal carry. Returns the packed-BCD sum and the carry out of
// the most significant digit.
func bcdAdd(d, s, cin uint16, byteOp bool) (uint16, bool) {
	digits := 4
	if byteOp {
		digits = 2
	}
	var out uint16
	carry := cin
	for i := 0; i < digits; i++ {
		shift := uint(4 * i)
		sum := (d>>shift)&0xF + (s>>shift)&0xF + carry
		if sum > 9 {
			sum -= 10
			carry = 1
		} else {
			carry = 0
		}
		out |= sum << shift
	}
	return out, carry == 1
}

func (c *CPU) carry() uint16 {
	if c.R[SR]&FlagC != 0 {
		return 1
	}
	return 0
}

func (c *CPU) setFlag(f uint16, on bool) {
	if on {
		c.R[SR] |= f
	} else {
		c.R[SR] &^= f
	}
}

func (c *CPU) setFlagsLogic(v uint16, byteOp bool) {
	c.setFlag(FlagZ, v&mask(byteOp) == 0)
	c.setFlag(FlagN, signBit(v, byteOp))
}

func mask(byteOp bool) uint16 {
	if byteOp {
		return 0xFF
	}
	return 0xFFFF
}

func signBit(v uint16, byteOp bool) bool {
	if byteOp {
		return v&0x80 != 0
	}
	return v&0x8000 != 0
}
