package repro.nn

import scala.util.Random

/** Unscaled single-head dot-product attention with keys = values:
  * softmax(q·kvᵀ)·kv, one row of weights per query row. TRMMA's encoder
  * fusion (paper Eq. 13–14) and the seq2seq and DHTR decoder contexts.
  */
object DotAttention {
  def apply(q: Tensor, kv: Tensor)(implicit tp: Tape): Tensor =
    Ops.matmul(Ops.softmaxRows(Ops.matmul(q, Ops.transpose(kv))), kv)
}

/** Multi-head scaled-dot-product self/cross attention (paper Eq. 4). */
final class MultiHeadAttention(
    val wq: Linear,
    val wk: Linear,
    val wv: Linear,
    val wo: Linear,
    val heads: Int,
) extends Module {
  private val dModel = wq.w.cols
  private val dHead = dModel / heads

  /** MHAttn(Q=q, K=kv, V=kv). `q` may differ from `kv` (cross attention). */
  def apply(q: Tensor, kv: Tensor)(implicit tp: Tape): Tensor = {
    val qs = wq(q); val ks = wk(kv); val vs = wv(kv)
    val parts = (0 until heads).map { h =>
      val qh = Ops.sliceCols(qs, h * dHead, (h + 1) * dHead)
      val kh = Ops.sliceCols(ks, h * dHead, (h + 1) * dHead)
      val vh = Ops.sliceCols(vs, h * dHead, (h + 1) * dHead)
      val scores = Ops.scale(Ops.matmul(qh, Ops.transpose(kh)), 1.0 / math.sqrt(dHead))
      Ops.matmul(Ops.softmaxRows(scores), vh)
    }
    wo(parts.reduceLeft(Ops.concatCols(_, _)))
  }

  def params: Seq[Tensor] = wq.params ++ wk.params ++ wv.params ++ wo.params
}

object MultiHeadAttention {
  def apply(dModel: Int, heads: Int, rnd: Random): MultiHeadAttention = {
    require(dModel % heads == 0, s"dModel=$dModel not divisible by heads=$heads")
    new MultiHeadAttention(
      Linear(dModel, dModel, rnd), Linear(dModel, dModel, rnd),
      Linear(dModel, dModel, rnd), Linear(dModel, dModel, rnd), heads)
  }
}

/** A post-norm transformer encoder layer (paper Eq. 6): self-attention and
  * FFN sublayers, each with a residual connection and layer normalisation.
  */
final class TransformerLayer(
    val attn: MultiHeadAttention,
    val ffn: Mlp,
    val ln1: LayerNorm,
    val ln2: LayerNorm,
) extends Module {
  def apply(x: Tensor)(implicit tp: Tape): Tensor = {
    val x1 = ln1(Ops.add(x, attn(x, x)))
    ln2(Ops.add(x1, ffn(x1)))
  }
  def params: Seq[Tensor] = attn.params ++ ffn.params ++ ln1.params ++ ln2.params
}

object TransformerLayer {
  def apply(dModel: Int, heads: Int, dFfn: Int, rnd: Random): TransformerLayer =
    new TransformerLayer(
      MultiHeadAttention(dModel, heads, rnd),
      Mlp(dModel, dFfn, dModel, rnd),
      LayerNorm(dModel), LayerNorm(dModel))
}

/** A stack of transformer layers with sinusoidal positions added to the
  * input (paper Eq. 3: Trans(Z1)).
  */
final class TransformerEncoder(val layers: Seq[TransformerLayer]) extends Module {
  def apply(x: Tensor)(implicit tp: Tape): Tensor = {
    val pos = Tensor.positional(x.rows, x.cols)
    var h = Ops.add(x, pos)
    layers.foreach(l => h = l(h))
    h
  }
  def params: Seq[Tensor] = layers.flatMap(_.params)
}

object TransformerEncoder {
  def apply(dModel: Int, heads: Int, dFfn: Int, nLayers: Int, rnd: Random): TransformerEncoder =
    new TransformerEncoder(Seq.fill(nLayers)(TransformerLayer(dModel, heads, dFfn, rnd)))
}
