package repro.nn

import java.util.concurrent.Executors
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.Random

/** Adam optimiser with global-norm gradient clipping. */
final class Adam(params: Seq[Tensor], lr: Double = 1e-3, clipNorm: Double = 5.0) {
  import Adam._

  private val m = params.map(p => new Array[Double](p.size)).toArray
  private val v = params.map(p => new Array[Double](p.size)).toArray
  private var t = 0

  /** Apply one update from per-parameter gradient arrays (aligned with the
    * `params` passed at construction).
    */
  def step(grads: Seq[Array[Double]]): Unit = {
    require(grads.length == params.length)
    t += 1
    var norm2 = 0.0
    grads.foreach(g => { var i = 0; while (i < g.length) { norm2 += g(i) * g(i); i += 1 } })
    val scale = { val n = math.sqrt(norm2); if (n > clipNorm) clipNorm / n else 1.0 }
    val bc1 = 1 - math.pow(Beta1, t)
    val bc2 = 1 - math.pow(Beta2, t)
    params.indices.foreach { pi =>
      val p = params(pi).data; val g = grads(pi); val mp = m(pi); val vp = v(pi)
      var i = 0
      while (i < p.length) {
        val gi = g(i) * scale
        mp(i) = Beta1 * mp(i) + (1 - Beta1) * gi
        vp(i) = Beta2 * vp(i) + (1 - Beta2) * gi * gi
        p(i) -= lr * (mp(i) / bc1) / (math.sqrt(vp(i) / bc2) + Eps)
        i += 1
      }
    }
  }
}

object Adam {
  private final val Beta1 = 0.9
  private final val Beta2 = 0.999
  private final val Eps = 1e-8
}

/** Data-parallel minibatch trainer: a worker thread forwards/backwards each
  * of `Chunks` chunks of the minibatch on its own [[GradTape]]; parameter
  * gradients are summed in chunk order and one Adam step applied. The chunks
  * do not depend on the pool's size, so neither do the trained parameters.
  * Mirrors single-GPU batched training on the multicore driver.
  */
object Trainer {

  /** Chunks per minibatch, cut in sample order. */
  private final val Chunks = 3
  /** One thread per chunk: a step runs at most `Chunks` futures, and steps
    * never overlap.
    */
  private lazy val pool =
    ExecutionContext.fromExecutorService(Executors.newFixedThreadPool(Chunks, r => {
      val t = new Thread(r, "nn-trainer"); t.setDaemon(true); t
    }))

  /** Run one minibatch step. `lossOf` computes the scalar (1x1) loss of one
    * example on the given tape; returns the mean loss value over the batch.
    */
  def step[S](
      batch: IndexedSeq[S],
      params: Seq[Tensor],
      opt: Adam,
      lossOf: (S, Tape) => Tensor,
  ): Double = {
    val chunks = {
      val per = math.max(1, math.ceil(batch.size.toDouble / Chunks).toInt)
      batch.grouped(per).toIndexedSeq
    }
    implicit val ec: ExecutionContext = pool
    val futs = chunks.map { chunk =>
      Future {
        val tp = new GradTape
        var lossSum = 0.0
        val losses = chunk.map { s => val l = lossOf(s, tp); lossSum += l.data(0); l }
        // Single backward over the summed loss of the chunk.
        val total = losses.reduceLeft((a, b) => Ops.add(a, b)(tp))
        tp.backward(total)
        (params.map(p => tp.grad(p)), lossSum)
      }
    }
    val results = Await.result(Future.sequence(futs), Duration.Inf)
    val acc = params.map(p => new Array[Double](p.size))
    var lossSum = 0.0
    results.foreach { case (gs, l) =>
      lossSum += l
      var pi = 0
      while (pi < acc.length) {
        val a = acc(pi); val g = gs(pi)
        var i = 0; while (i < a.length) { a(i) += g(i) / batch.size; i += 1 }
        pi += 1
      }
    }
    opt.step(acc)
    lossSum / batch.size
  }

  /** Minibatch training shared by every model: each of `epochs` passes
    * draws a fresh shuffle of `samples` from one `Random(seed)`, cuts it into
    * batches of `batchSize` and takes one [[step]] per batch. Logs
    * `"<label> epoch N loss L"` and returns the per-epoch mean batch loss.
    */
  def fit[S](samples: IndexedSeq[S], params: Seq[Tensor], opt: Adam, epochs: Int, batchSize: Int,
      seed: Long, label: String, log: String => Unit)(lossOf: (S, Tape) => Tensor): Seq[Double] = {
    val rnd = new Random(seed)
    (1 to epochs).map { ep =>
      val losses = rnd.shuffle(samples).grouped(batchSize).map(step(_, params, opt, lossOf)).toSeq
      val mean = losses.sum / losses.size
      log(f"$label epoch $ep loss $mean%.4f")
      mean
    }
  }
}
