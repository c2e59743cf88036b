/**
 * @file
 * Base LLM descriptors.
 *
 * Only the quantities that drive serving decisions are modeled: parameter
 * count (weight bytes, prefill FLOPs), layer/hidden geometry (LoRA adapter
 * sizes), and KV-cache bytes per token. Presets cover the models used in
 * the paper's evaluation (Llama-7B/13B/30B/70B, §5.1/§5.5).
 */

#ifndef CHAMELEON_MODEL_LLM_H
#define CHAMELEON_MODEL_LLM_H

#include <cstdint>
#include <string>

namespace chameleon::model {

/**
 * Static description of a base LLM.
 *
 * All byte quantities assume fp16 weights and KV entries, matching the
 * paper's testbed configuration.
 */
struct ModelSpec
{
    std::string name;
    /** Transformer layer count. */
    int layers = 0;
    /** Model (embedding) dimension. */
    int hidden = 0;
    /**
     * Key/value projection width. Equal to hidden for multi-head
     * attention; smaller for grouped-query attention (Llama-70B).
     */
    int kvHidden = 0;
    /** Total parameter count. */
    double params = 0.0;

    /** Weight footprint in bytes (fp16). */
    std::int64_t weightsBytes() const;

    /** KV-cache bytes required per cached token (fp16 K and V). */
    std::int64_t kvBytesPerToken() const;

    /**
     * LoRA parameter count per unit rank per layer, summing the A and B
     * matrices of the four attention projections (q, k, v, o). For MHA
     * this is 8 * hidden; GQA shrinks the k/v output dimensions.
     */
    std::int64_t loraDimsPerLayer() const;

    /** Forward-pass FLOPs per token (approximately 2 * params). */
    double flopsPerToken() const { return 2.0 * params; }
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const ModelSpec &a, const ModelSpec &b);
inline bool operator!=(const ModelSpec &a, const ModelSpec &b)
{
    return !(a == b);
}

/** Llama-7B (32 layers, hidden 4096, MHA). */
ModelSpec llama7B();
/** Llama-13B (40 layers, hidden 5120, MHA). */
ModelSpec llama13B();
/** Llama-30B (60 layers, hidden 6656, MHA). */
ModelSpec llama30B();
/** Llama-70B (80 layers, hidden 8192, GQA with 1024-wide KV). */
ModelSpec llama70B();

/** Preset lookup by name; returns false on unknown names. */
bool tryModelByName(const std::string &name, ModelSpec *out);

/** Comma-separated preset names, for error messages. */
const char *modelPresetNames();

} // namespace chameleon::model

#endif // CHAMELEON_MODEL_LLM_H
