/* The functions the crypto fastpath's C exports (fastpath.c), read both
   by cffi's cdef parser, which turns them into the Python-callable
   ``lib`` of repro.crypto.fastpath, and by the C compiler, which checks
   the definitions in fastpath.c against them.  cffi parses no
   preprocessor lines, so this file holds declarations only: no include
   guard, and fastpath.c includes <stddef.h> for size_t first. */

void lcm_ctr_keystream(const unsigned char *prefix, size_t prefix_len,
                       unsigned long long first_counter,
                       unsigned long long nblocks, unsigned char *out);
const char *lcm_kernels(void);
int lcm_modexp(const unsigned char *modulus, const unsigned char *r2,
               unsigned long long n0inv, const unsigned char *base,
               const unsigned char *exponent, size_t exp_len,
               unsigned char *out);
void lcm_sha256_batch(const unsigned char *data,
                      const unsigned long long *offsets, size_t n,
                      unsigned char *out);
void lcm_chain_extend(const unsigned char *prev, size_t prev_len,
                      const unsigned char *op, size_t op_len,
                      unsigned long long sequence,
                      unsigned long long client_id,
                      unsigned char *out);
void lcm_seal_box(const unsigned char *enc_key, const unsigned char *mac_key,
                  const unsigned char *nonce,
                  const unsigned char *frame, size_t frame_len,
                  const unsigned char *pt, size_t pt_len,
                  unsigned char *out);
void lcm_stream_box(const unsigned char *enc_key,
                    const unsigned char *nonce,
                    const unsigned char *pt, size_t pt_len,
                    unsigned char *out);
int lcm_open_box(const unsigned char *enc_key, const unsigned char *mac_key,
                 const unsigned char *frame, size_t frame_len,
                 const unsigned char *box, size_t box_len,
                 unsigned char *out_pt);
void lcm_seal_boxes(const unsigned char *enc_key,
                    const unsigned char *mac_key,
                    const unsigned char *nonces,
                    const unsigned char *frame, size_t frame_len,
                    const unsigned char *joined_pt,
                    const unsigned long long *offsets, size_t n,
                    unsigned char *out);
int lcm_open_boxes(const unsigned char *enc_key,
                   const unsigned char *mac_key,
                   const unsigned char *frame, size_t frame_len,
                   const unsigned char *joined_boxes,
                   const unsigned long long *offsets, size_t n,
                   unsigned char *out_pt);
int lcm_seal_invoke(const unsigned char *enc_key,
                    const unsigned char *mac_key,
                    const unsigned char *nonce,
                    const unsigned char *frame, size_t frame_len,
                    const unsigned char *prefix, size_t prefix_len,
                    long long tc,
                    const unsigned char *hc, size_t hc_len,
                    const unsigned char *op, size_t op_len,
                    long long cid, int retry,
                    unsigned char *out);
long long lcm_open_reply(const unsigned char *enc_key,
                         const unsigned char *mac_key,
                         const unsigned char *frame, size_t frame_len,
                         const unsigned char *prefix, size_t prefix_len,
                         const unsigned char *box, size_t box_len,
                         unsigned char *out_pt, long long *meta);
long long lcm_invoke_batch_open(const unsigned char *enc_key,
                                const unsigned char *mac_key,
                                const unsigned char *frame, size_t frame_len,
                                const unsigned char *prefix, size_t prefix_len,
                                const unsigned char *joined_boxes,
                                const unsigned long long *offsets, size_t n,
                                unsigned char *out_pt,
                                long long *meta,
                                unsigned char *chains_out,
                                const long long *row_ids, size_t nrows,
                                long long *row_ack, long long *row_seq,
                                unsigned char *row_chains,
                                long long *acks,
                                long long quorum,
                                long long *sequence_io,
                                unsigned char *chain_io);
int lcm_invoke_batch_reply(const unsigned char *enc_key,
                           const unsigned char *mac_key,
                           const unsigned char *frame, size_t frame_len,
                           const unsigned char *prefix, size_t prefix_len,
                           const long long *meta, size_t n,
                           const unsigned char *chains,
                           const unsigned char *pt_in,
                           const unsigned char *results,
                           const unsigned long long *result_offsets,
                           const unsigned char *nonce_seed,
                           unsigned long long nonce_counter,
                           unsigned char *out_boxes,
                           unsigned char *out_rows,
                           unsigned char *out_manifests);
