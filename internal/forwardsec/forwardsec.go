// Package forwardsec implements the paper's §1 motivating application:
// forward-secrecy encryption whose one-time keys are physically destroyed
// by wearout hardware after a single read.
//
// Software key management can promise to delete a key after use; it
// cannot prevent a compromised OS from having copied it first, nor a
// disk image from resurrecting it. Here each message key lives in a
// read-destructive store behind a one-actuation NEMS gate
// (nems.FabricateDeterministic(1) — the "wears out exactly after one
// access" device of §1): after the legitimate read, the key does not
// exist anywhere, so compromising the archive later reveals nothing about
// previously-read messages.
package forwardsec

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"

	"lemonade/internal/memory"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

var (
	// ErrKeyConsumed is returned when a message's one-time key hardware
	// has already been used (or worn out).
	ErrKeyConsumed = errors.New("forwardsec: one-time key already consumed")
	// ErrNoSuchMessage is returned for unknown message indices.
	ErrNoSuchMessage = errors.New("forwardsec: no such message")
)

// keySlot is one one-time key: a single-actuation gate in front of a
// read-destructive store.
type keySlot struct {
	gate  nems.Switch
	store *memory.ReadDestructive
}

func newKeySlot(key []byte) *keySlot {
	return &keySlot{
		gate:  nems.FabricateDeterministic(1),
		store: memory.NewReadDestructive(key),
	}
}

func (s *keySlot) read(env nems.Environment) ([]byte, error) {
	if err := s.gate.Actuate(env); err != nil {
		return nil, ErrKeyConsumed
	}
	key, err := s.store.Read()
	if err != nil {
		return nil, ErrKeyConsumed
	}
	return key, nil
}

// Archive is an append-only store of messages, each sealed under its own
// hardware one-time key.
type Archive struct {
	entries []entry
	r       *rng.RNG
}

type entry struct {
	ciphertext []byte
	slot       *keySlot
	read       bool
}

// NewArchive returns an empty archive using r for nonces and keys.
// (A production system would use crypto/rand; the deterministic generator
// keeps the simulations reproducible.)
func NewArchive(r *rng.RNG) *Archive {
	return &Archive{r: r}
}

// Seal appends a message, returning its index. The message key exists
// only inside the new hardware slot from this moment on.
func (a *Archive) Seal(plaintext []byte) (int, error) {
	key := make([]byte, 32)
	a.r.Bytes(key)
	block, err := aes.NewCipher(key)
	if err != nil {
		return 0, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return 0, err
	}
	nonce := make([]byte, gcm.NonceSize())
	a.r.Bytes(nonce)
	a.entries = append(a.entries, entry{
		ciphertext: gcm.Seal(nonce, nonce, plaintext, nil),
		slot:       newKeySlot(key),
	})
	return len(a.entries) - 1, nil
}

// Read opens message i, physically consuming its key: a second Read of
// the same message fails forever.
func (a *Archive) Read(i int, env nems.Environment) ([]byte, error) {
	if i < 0 || i >= len(a.entries) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchMessage, i)
	}
	e := &a.entries[i]
	key, err := e.slot.read(env)
	if err != nil {
		return nil, err
	}
	e.read = true
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return gcm.Open(nil, e.ciphertext[:gcm.NonceSize()], e.ciphertext[gcm.NonceSize():], nil)
}

// Len returns the number of archived messages.
func (a *Archive) Len() int { return len(a.entries) }

// Readable reports whether message i's key still exists.
func (a *Archive) Readable(i int) bool {
	if i < 0 || i >= len(a.entries) {
		return false
	}
	e := a.entries[i]
	return e.slot.gate.Working() && !e.slot.store.Destroyed()
}

// CompromiseDump models a full post-compromise forensic image: the
// adversary gets every ciphertext plus the contents of every key store
// that still physically exists (via cold reads that bypass read
// destruction — the §6.2.2 attack). Messages whose keys were consumed
// before the compromise are unrecoverable; unread messages fall.
// The return value maps message index → recovered plaintext.
func (a *Archive) CompromiseDump() map[int][]byte {
	out := make(map[int][]byte)
	for i := range a.entries {
		e := &a.entries[i]
		key, err := e.slot.store.ColdRead() // destruction bypassed!
		if err != nil {
			continue // key no longer exists anywhere
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			continue
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			continue
		}
		plain, err := gcm.Open(nil, e.ciphertext[:gcm.NonceSize()], e.ciphertext[gcm.NonceSize():], nil)
		if err != nil {
			continue
		}
		out[i] = plain
	}
	return out
}
