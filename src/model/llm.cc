#include "model/llm.h"

namespace chameleon::model {

std::int64_t
ModelSpec::weightsBytes() const
{
    return static_cast<std::int64_t>(params * 2.0);
}

std::int64_t
ModelSpec::kvBytesPerToken() const
{
    // K and V, one vector of kvHidden per layer, fp16.
    return static_cast<std::int64_t>(2) * layers * kvHidden * 2;
}

std::int64_t
ModelSpec::loraDimsPerLayer() const
{
    // LoRA pairs (A: in x r, B: r x out) on q, k, v, o projections.
    // Per unit rank: q -> hidden + hidden, k -> hidden + kvHidden,
    // v -> hidden + kvHidden, o -> hidden + hidden.
    return static_cast<std::int64_t>(6) * hidden + 2 * kvHidden;
}

ModelSpec
llama7B()
{
    return ModelSpec{"llama-7b", 32, 4096, 4096, 6.74e9};
}

ModelSpec
llama13B()
{
    return ModelSpec{"llama-13b", 40, 5120, 5120, 13.0e9};
}

ModelSpec
llama30B()
{
    return ModelSpec{"llama-30b", 60, 6656, 6656, 32.5e9};
}

ModelSpec
llama70B()
{
    return ModelSpec{"llama-70b", 80, 8192, 1024, 68.9e9};
}

bool
tryModelByName(const std::string &name, ModelSpec *out)
{
    if (name == "llama-7b")
        *out = llama7B();
    else if (name == "llama-13b")
        *out = llama13B();
    else if (name == "llama-30b")
        *out = llama30B();
    else if (name == "llama-70b")
        *out = llama70B();
    else
        return false;
    return true;
}

const char *
modelPresetNames()
{
    return "llama-7b, llama-13b, llama-30b, llama-70b";
}

} // namespace chameleon::model
