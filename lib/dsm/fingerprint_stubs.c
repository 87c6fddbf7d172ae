/* The fingerprint kernel: a 128-bit hash of an OCaml value, computed
   by walking the value in the order [Marshal] serialises it and
   feeding what [Marshal] would write to a two-lane multiply-xorshift
   mixer.

   The walk mirrors the marshaller's (runtime/extern.c) exactly:
   - fields are visited left to right, depth first; the last field of
     a block is continued iteratively, the others wait on an explicit
     stack of field ranges;
   - a [Forward_tag] block is short-circuited under the same
     condition;
   - a size-0 block (an atom) is hashed as its tag and never recorded;
   - every other block gets the next preorder number when first seen,
     and a block reached again hashes as a back-reference to that
     number.
   The token stream therefore decodes to the marshalled bytes and vice
   versa, so two values hash alike exactly when [Marshal.to_string v []]
   agrees, up to collisions.  Blocks the walk does not model (custom,
   abstract, closures, lazy and object blocks) and values that exceed
   the stack or the address table make the walk give up; the caller
   then hashes the marshalled bytes instead, which is deterministic in
   the same bytes.

   The same walk also sizes a value: instead of mixing a token it adds
   the bytes [Marshal] writes for it (see [marshal_*_bytes] below), so
   [Fingerprint.serialized_size] needs no marshalled string.

   Seen blocks live in a per-thread open-addressing table keyed by
   address.  Each walk bumps the table's epoch instead of clearing it,
   so a slot is occupied only if it carries the current epoch.  The
   walk never allocates on the OCaml heap, so no collection can move a
   block while its address is in the table. */

#define CAML_NAME_SPACE
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>

/* ----- the mixer ----- */

typedef struct {
  uint64_t a, b;
} lanes;

static const lanes seed = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL};

static inline void mix(lanes *h, uint64_t w)
{
  uint64_t a = (h->a ^ w) * 0x9E3779B97F4A7C15ULL;
  uint64_t b = (h->b + w) * 0xC2B2AE3D27D4EB4FULL;
  h->a = a ^ (a >> 32);
  h->b = b ^ (b >> 29);
}

static inline uint64_t fmix64(uint64_t k)
{
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ULL;
  k ^= k >> 33;
  return k;
}

/* Both lanes, finalised, as 16 little-endian bytes. */
static void finish(lanes h, value buf)
{
  uint64_t a = fmix64(h.a);
  uint64_t b = fmix64(h.b ^ a);
  unsigned char *p = Bytes_val(buf);
  for (int i = 0; i < 8; i++) {
    p[i] = (unsigned char)(a >> (8 * i));
    p[8 + i] = (unsigned char)(b >> (8 * i));
  }
}

/* Token kinds.  An immediate is fed as its tagged word, whose low bit
   is 1; every other token has a low bit of 0 and its kind in bits
   1-3, so the stream parses unambiguously. */
enum { K_BLOCK, K_STRING, K_SHARED, K_MARSHALLED, K_RAW, K_COMBINE };

#define TOKEN(kind, n) (((uint64_t)(n) << 4) | ((uint64_t)(kind) << 1))

/* A string's length, then its bytes as whole words.  The bytes past
   the length in the last word are the block's padding, which is a
   function of the length. */
static inline void mix_string(lanes *h, value s)
{
  mlsize_t len = caml_string_length(s);
  const char *p = String_val(s);
  mix(h, TOKEN(K_STRING, len));
  for (mlsize_t i = 0; i < len; i += 8) {
    uint64_t w;
    memcpy(&w, p + i, 8);
    mix(h, w);
  }
}

/* ----- the per-thread walk context ----- */

#define MIN_BITS 10
#define MAX_BITS 16 /* at most 2^15 recorded blocks per walk */
#define STACK_SIZE 4096

struct slot {
  value v;
  uint32_t epoch;
  uint32_t pos;
};

struct item {
  value *fields;
  mlsize_t count;
};

struct ctx {
  uint32_t epoch;
  int bits;
  struct slot *table;
  struct item stack[STACK_SIZE];
};

static pthread_key_t ctx_key;
static pthread_once_t ctx_once = PTHREAD_ONCE_INIT;
static _Thread_local struct ctx *local_ctx;

static void ctx_free(void *p)
{
  struct ctx *c = p;
  free(c->table);
  free(c);
}

static void ctx_key_init(void) { pthread_key_create(&ctx_key, ctx_free); }

static int ctx_resize(struct ctx *c, int bits)
{
  struct slot *t = calloc((size_t)1 << bits, sizeof(struct slot));
  if (t == NULL) return 0;
  free(c->table);
  c->table = t;
  c->bits = bits;
  c->epoch = 0;
  return 1;
}

static struct ctx *ctx_get(void)
{
  struct ctx *c = local_ctx;
  if (c != NULL) return c;
  pthread_once(&ctx_once, ctx_key_init);
  c = calloc(1, sizeof(struct ctx));
  if (c == NULL) return NULL;
  if (!ctx_resize(c, MIN_BITS)) {
    free(c);
    return NULL;
  }
  pthread_setspecific(ctx_key, c);
  local_ctx = c;
  return c;
}

/* A fresh, empty table: bump the epoch, clearing only on wrap-around. */
static void ctx_begin(struct ctx *c)
{
  if (++c->epoch == 0) {
    memset(c->table, 0, sizeof(struct slot) << c->bits);
    c->epoch = 1;
  }
}

/* ----- marshalled sizes (runtime/extern.c, 64-bit, no flags) ----- */

static inline uint64_t marshal_int_bytes(intnat n)
{
  if (n >= 0 && n < 0x40) return 1;
  if (n >= -(1 << 7) && n < (1 << 7)) return 2;
  if (n >= -(1 << 15) && n < (1 << 15)) return 3;
  if (n < -((intnat)1 << 30) || n >= ((intnat)1 << 30)) return 9;
  return 5;
}

static inline uint64_t marshal_header_bytes(mlsize_t sz, tag_t tag)
{
  if (tag < 16 && sz < 8) return 1;
  return sz < ((mlsize_t)1 << 22) ? 5 : 9;
}

static inline uint64_t marshal_shared_bytes(uint32_t d)
{
  return d < 0x100 ? 2 : d < 0x10000 ? 3 : 5;
}

static inline uint64_t marshal_length_bytes(mlsize_t len, mlsize_t small)
{
  return len < small ? 1 : len < 0x100 ? 2 : len <= 0xFFFFFFFFUL ? 5 : 9;
}

/* ----- the walk ----- */

enum { WALK_OK, WALK_BAIL, WALK_FULL };

/* What a walk produces: the mixed token stream, or ([sizing]) the
   bytes and the 64-bit heap words [Marshal] would count. */
struct out {
  lanes h;
  uint64_t bytes, words;
};

/* One walk for both outputs; [sizing] is a constant at each call
   site, so each instance keeps only its own branch. */
static inline __attribute__((always_inline)) int
walk_impl(struct ctx *c, value v, struct out *o, const int sizing)
{
  lanes *const h = &o->h;
  struct item *sp = c->stack;
  struct item *const limit = c->stack + STACK_SIZE - 1;
  const uint32_t epoch = c->epoch;
  const int shift = 64 - c->bits;
  const uintnat mask = ((uintnat)1 << c->bits) - 1;
  const uint32_t max_pos = (uint32_t)1 << (c->bits - 1);
  uint32_t pos = 0;

  for (;;) {
    if (Is_long(v)) {
      if (sizing) o->bytes += marshal_int_bytes(Long_val(v));
      else mix(h, (uint64_t)v);
    } else {
      header_t hd = Hd_val(v);
      tag_t tag = Tag_hd(hd);
      mlsize_t sz = Wosize_hd(hd);

      if (tag == Forward_tag) {
        value f = Forward_val(v);
        if (Is_block(f)
            && (Tag_val(f) == Forward_tag || Tag_val(f) == Lazy_tag
                || Tag_val(f) == Forcing_tag || Tag_val(f) == Double_tag))
          return WALK_BAIL;
        v = f;
        continue;
      }
      if (sz == 0) {
        if (sizing) o->bytes += marshal_header_bytes(0, tag);
        else mix(h, TOKEN(K_BLOCK, tag));
        goto next_item;
      }

      uintnat i = (uintnat)(((uint64_t)v >> 3) * 0x9E3779B97F4A7C15ULL
                            >> shift);
      struct slot *s;
      for (;;) {
        s = &c->table[i];
        if (s->epoch != epoch) break;
        if (s->v == v) {
          if (sizing) o->bytes += marshal_shared_bytes(pos - s->pos);
          else mix(h, TOKEN(K_SHARED, s->pos));
          goto next_item;
        }
        i = (i + 1) & mask;
      }
      if (pos == max_pos) return WALK_FULL;
      s->v = v;
      s->epoch = epoch;
      s->pos = pos++;

      if (sizing) o->words += 1 + sz;
      switch (tag) {
      case String_tag:
        if (sizing) {
          mlsize_t len = caml_string_length(v);
          o->bytes += marshal_length_bytes(len, 0x20) + len;
        } else
          mix_string(h, v);
        break;
      case Double_tag:
      case Double_array_tag:
        if (sizing)
          o->bytes += tag == Double_tag
                          ? 9
                          : marshal_length_bytes(sz, 0) + 8 * sz;
        else {
          mix(h, TOKEN(K_BLOCK, (sz << 8) | tag));
          for (mlsize_t j = 0; j < sz; j++) mix(h, (uint64_t)Field(v, j));
        }
        break;
      default:
        /* Forcing, Cont, Lazy, Closure, Object, Infix, Abstract and
           Custom blocks: the marshaller's business. */
        if (tag >= Forcing_tag) return WALK_BAIL;
        if (sizing) o->bytes += marshal_header_bytes(sz, tag);
        else mix(h, TOKEN(K_BLOCK, (sz << 8) | tag));
        if (sz > 1) {
          if (sp == limit) return WALK_BAIL;
          sp++;
          sp->fields = (value *)&Field(v, 1);
          sp->count = sz - 1;
        }
        v = Field(v, 0);
        continue;
      }
    }
  next_item:
    if (sp == c->stack) return WALK_OK;
    v = *(sp->fields++);
    if (--sp->count == 0) sp--;
  }
}

/* Run the walk on [v] from a fresh table, growing the table when it
   fills; false when the walk gives up.  Inlined into each stub, so
   [o] can live in registers. */
static inline __attribute__((always_inline)) int
walk_value(value v, struct out *o, const int sizing)
{
  struct ctx *c = ctx_get();
  if (c == NULL) return 0;
  for (;;) {
    o->h = seed;
    o->bytes = o->words = 0;
    ctx_begin(c);
    switch (walk_impl(c, v, o, sizing)) {
    case WALK_OK:
      return 1;
    case WALK_FULL:
      if (c->bits < MAX_BITS && ctx_resize(c, c->bits + 2)) continue;
      return 0;
    default:
      return 0;
    }
  }
}

/* [lmc_fp_value v buf] writes [v]'s fingerprint to [buf] and returns
   true, or returns false when [v] must be hashed from its marshalled
   bytes.  Never allocates on the OCaml heap. */
CAMLprim value lmc_fp_value(value v, value buf)
{
  struct out o;
  if (!walk_value(v, &o, 0)) return Val_false;
  finish(o.h, buf);
  return Val_true;
}

/* [lmc_fp_size v] is the length of [Marshal.to_string v []]: the
   20-byte header plus the data, or -1 when [v] must be marshalled to
   know (the walk gave up, or the data or heap words are large enough
   to need the 32-byte header).  Never allocates on the OCaml heap. */
CAMLprim value lmc_fp_size(value v)
{
  struct out o;
  if (!walk_value(v, &o, 1) || o.bytes >= ((uint64_t)1 << 32)
      || o.words >= ((uint64_t)1 << 31))
    return Val_long(-1);
  return Val_long(20 + o.bytes);
}

/* [lmc_fp_string raw s buf]: the fingerprint of a string, either
   marshalled bytes ([raw] false) or an arbitrary string. */
CAMLprim value lmc_fp_string(value raw, value s, value buf)
{
  lanes h = seed;
  mix(&h, TOKEN(Bool_val(raw) ? K_RAW : K_MARSHALLED, 0));
  mix_string(&h, s);
  finish(h, buf);
  return Val_unit;
}

/* [lmc_fp_combine fps buf]: the fingerprint of a list of strings. */
CAMLprim value lmc_fp_combine(value l, value buf)
{
  lanes h = seed;
  mix(&h, TOKEN(K_COMBINE, 0));
  for (; Is_block(l); l = Field(l, 1)) mix_string(&h, Field(l, 0));
  finish(h, buf);
  return Val_unit;
}
