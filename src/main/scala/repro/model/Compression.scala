package repro.model

/** Per-model compression techniques the paper composes with deduplication
  * (Sec. 7.6 / Table 14): magnitude pruning [27,28] and uniform k-bit
  * quantization [33]. Both return transformed weights (so deduplication can
  * run *after* them) plus a physical-size ratio for storage accounting.
  */
object Compression {

  /** Magnitude pruning: zero the `fraction` smallest |w| of every tensor.
    * The threshold is per-tensor (global over its blocks), as in iterative
    * magnitude pruning.
    */
  def prune(model: Model, fraction: Double): Model = {
    require(fraction >= 0 && fraction < 1)
    val tensors = model.tensors.map { t =>
      val all = t.blocks.flatMap(_.data.toSeq.map(math.abs)).sorted
      val cut = if (all.isEmpty) 0.0 else all(math.min(all.size - 1, (fraction * all.size).toInt))
      t.copy(blocks = t.blocks.map { b =>
        b.copy(data = b.data.map(w => if (math.abs(w) < cut) 0.0 else w))
      })
    }
    model.copy(tensors = tensors)
  }

  /** Uniform per-block quantization to `bits` bits; returns the
    * quantize-dequantize round trip so downstream consumers (dedup, accuracy)
    * see exactly what would be stored.
    */
  def quantize(model: Model, bits: Int): Model = {
    require(bits >= 1 && bits <= 16)
    val levels = (1 << bits) - 1
    val tensors = model.tensors.map { t =>
      t.copy(blocks = t.blocks.map { b =>
        val min = b.data.min; val max = b.data.max
        val scale = if (max > min) (max - min) / levels else 1.0
        b.copy(data = b.data.map { w =>
          val q = math.round((w - min) / scale)
          min + q * scale
        })
      })
    }
    model.copy(tensors = tensors)
  }

  /** Stored-size ratio of a pruned tensor block set vs. dense doubles:
    * sparse COO-style storage with a 2-byte in-block index per surviving
    * weight, (8+2) bytes per nonzero over 8 bytes per dense weight.
    */
  def prunedSizeRatio(model: Model): Double = {
    val (nnz, n) = model.tensors.foldLeft((0L, 0L)) { case ((z, t0), t) =>
      (z + t.blocks.iterator.map(_.data.count(_ != 0.0).toLong).sum,
       t0 + t.blocks.iterator.map(_.data.length.toLong).sum)
    }
    if (n == 0) 1.0 else nnz.toDouble * 10.0 / (n.toDouble * 8.0)
  }

  /** Stored-size ratio of `bits`-bit quantized weights vs. 64-bit doubles
    * (per-block scale/offset overhead is negligible at paper block sizes).
    */
  def quantizedSizeRatio(bits: Int): Double = bits / 64.0
}
